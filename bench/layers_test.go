package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestSplitFunc(t *testing.T) {
	cases := []struct{ fn, pkg, sym string }{
		{"mpic/internal/core.(*party).prepareIteration", "mpic/internal/core", "party.prepareIteration"},
		{"mpic/internal/core.Run.func2", "mpic/internal/core", "Run"},
		{"mpic/internal/core.Run.func2.1", "mpic/internal/core", "Run"},
		{"mpic/internal/core.hasher.HashK", "mpic/internal/core", "hasher.HashK"},
		{"mpic.(*Runner).RunGrid.gowrap1", "mpic", "Runner.RunGrid"},
		{"net/http.(*conn).serve", "net/http", "conn.serve"},
		{"main.(*scenarioSystem).run", "main", "scenarioSystem.run"},
		{"slices.SortFunc[go.shape.[]int]", "slices", "SortFunc"},
		{"runtime.gcBgMarkWorker", "runtime", "gcBgMarkWorker"},
	}
	for _, c := range cases {
		if pkg, sym := splitFunc(c.fn); pkg != c.pkg || sym != c.sym {
			t.Errorf("splitFunc(%q) = %q, %q; want %q, %q", c.fn, pkg, sym, c.pkg, c.sym)
		}
	}
}

func TestSampleLayer(t *testing.T) {
	f := func(fn, file string) frame { return frame{fn: fn, file: "/src/" + file} }
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{f("mpic/internal/hashing.kernelSweep", "hashing/kernel.go"), f("mpic/internal/core.(*party).prepareIteration", "core/party.go")}, "hashing.kernel"},
		// Pass-through frames take on their nearest layer caller.
		{[]frame{f("runtime.mallocgc", "runtime/malloc.go"), f("mpic/internal/bitstring.(*BitVec).Append", "bitstring/bitstring.go"), f("mpic/internal/core.(*party).simDeliver", "core/party_phases.go")}, "core.simulation"},
		{[]frame{f("mpic/internal/core.(*Transcript).TruncateTo", "core/transcript.go"), f("mpic/internal/core.(*party).planRewinds", "core/party.go")}, "core.rewind"},
		// The shared send collector belongs to the engine step that called it.
		{[]frame{f("mpic/internal/network.(*Engine).collectSends", "network/network.go"), f("mpic/internal/network.(*Engine).stepTimed", "network/vtime.go")}, "network.des"},
		{[]frame{f("syscall.write", "syscall/zsyscall.go"), f("net/http.(*response).Flush", "net/http/server.go")}, "service"},
		{[]frame{f("syscall.read", "syscall/zsyscall.go"), f("net/http.(*persistConn).readLoop", "net/http/transport.go")}, "harness"},
		{[]frame{f("runtime.scanobject", "runtime/mgcmark.go"), f("runtime.gcDrain", "runtime/mgcmark.go"), f("runtime.gcBgMarkWorker", "runtime/mgc.go")}, "runtime.gc"},
		{[]frame{f("runtime.futex", "runtime/sys_linux_amd64.s"), f("runtime.schedule", "runtime/proc.go")}, "other"},
		{[]frame{f("mpic/internal/newpkg.F", "newpkg/f.go"), f("mpic/internal/core.Run", "core/engine.go")}, "other"},
	}
	for _, c := range cases {
		if got := sampleLayer(c.stack, map[frame]string{}); got != c.want {
			t.Errorf("sampleLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestLayerTableCoversRepo keeps the layer table in step with the
// repository: every package of the module has a rule of its own.
func TestLayerTableCoversRepo(t *testing.T) {
	named := map[string]bool{}
	for _, r := range layerRules {
		named[r.pkg] = true
	}
	dirs, err := filepath.Glob("../internal/*")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []string{"mpic"}
	for _, d := range dirs {
		if fi, err := os.Stat(d); err == nil && fi.IsDir() {
			pkgs = append(pkgs, "mpic/internal/"+filepath.Base(d))
		}
	}
	if len(pkgs) < 10 {
		t.Fatalf("found only %v; run the test from the bench directory", pkgs)
	}
	for _, p := range pkgs {
		if !named[p] {
			t.Errorf("package %s has no rule in the layer table", p)
		}
	}
	valid := map[string]bool{"": true}
	for _, l := range layers {
		valid[l] = true
	}
	for _, r := range layerRules {
		if !valid[r.layer] {
			t.Errorf("rule for %s names unknown layer %q", r.pkg, r.layer)
		}
	}
}

// TestAttributeRealProfile profiles a short scenario loop and checks that
// the layer table claims nearly all of it.
func TestAttributeRealProfile(t *testing.T) {
	d := newScenarioSystem(config{seed: 5}, false)
	defer d.close()
	if err := d.setup(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := measure(d, newPhase(1.5, 0, nil, nil), &buf); err != nil {
		t.Fatal(err)
	}
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 50 {
		t.Fatalf("only %d samples in 1.5s of profiling", len(samples))
	}
	byLayer := attribute(samples)
	var total int64
	for l, ns := range byLayer {
		total += ns
		if l != "other" && !contains(layers, l) {
			t.Errorf("samples credited to unknown layer %q", l)
		}
	}
	if share := float64(byLayer["other"]) / float64(total); share > 0.10 && !raceEnabled {
		t.Errorf("%.1f%% of CPU in other, want ≤ 10%%", 100*share)
	}
	for _, l := range []string{"core.party", "protocol", "network.lockstep"} {
		if byLayer[l] == 0 {
			t.Errorf("no CPU credited to %s on a lockstep scenario", l)
		}
	}
	if byLayer["network.des"] != 0 || byLayer["mpic.store"] != 0 || byLayer["service"] != 0 {
		t.Errorf("a lockstep scenario credited CPU to idle layers: %v", byLayer)
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
