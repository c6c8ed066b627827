package main

import (
	"path"
	"strings"
)

// layers are the repository's modules as the traced run attributes CPU
// time to them, bottom of the stack first. runtime.gc takes background
// garbage collection; other takes whatever no rule claims.
var layers = []string{
	"hashing.kernel", "hashing.seeds", "hashing.checkpoint",
	"core.setup", "core.party", "core.exchange", "core.meeting", "core.flag",
	"core.simulation", "core.rewind", "core.oracle",
	"protocol", "adversary", "network.lockstep", "network.des",
	"mpic.grid", "mpic.store", "service", "harness", "runtime.gc", "other",
}

// layerRule assigns the frames of one package — optionally narrowed to
// source files and function names — to a layer. An empty layer makes the
// frames pass through: they take on their nearest caller's layer.
type layerRule struct {
	pkg   string // package path of the frame's function
	file  string // path.Match pattern on the source file's base name; "" = any
	sym   string // path.Match pattern on the function name within its package, receiver "(*T)" written "T"; "" = any
	layer string
}

// layerRules is the layer table: the first rule matching a frame decides
// it. Packages of the standard library and the runtime have no rule and
// pass through, except the HTTP server and client, whose frames belong to
// the service and to the benchmark's load generator. A frame of this
// module that no rule names lands in "other", so a new package shows up
// instead of silently joining its caller.
var layerRules = []layerRule{
	{pkg: "mpic/internal/hashing", file: "kernel*", layer: "hashing.kernel"},
	{pkg: "mpic/internal/hashing", file: "hash.go", layer: "hashing.kernel"},
	{pkg: "mpic/internal/hashing", file: "checkpoint.go", layer: "hashing.checkpoint"},
	{pkg: "mpic/internal/hashing", layer: "hashing.seeds"},

	// core: the party's phase handlers by function, its per-run setup,
	// and the engine-side oracle. The round dispatchers (Send, Deliver,
	// EndRound) and the coded view stay core.party.
	{pkg: "mpic/internal/core", file: "party.go", sym: "party.prepareIteration", layer: "core.meeting"},
	{pkg: "mpic/internal/core", file: "party.go", sym: "party.finishMeetingPoints", layer: "core.meeting"},
	{pkg: "mpic/internal/core", file: "party.go", sym: "*ackHashes*", layer: "core.meeting"},
	{pkg: "mpic/internal/core", file: "party.go", sym: "hasher.*", layer: "core.meeting"},
	{pkg: "mpic/internal/core", file: "party.go", sym: "party.planRewinds", layer: "core.rewind"},
	{pkg: "mpic/internal/core", file: "party.go", sym: "party.minChunk", layer: ""},
	{pkg: "mpic/internal/core", file: "party.go", sym: "party.phaseAt", layer: ""},
	{pkg: "mpic/internal/core", file: "party.go", sym: "party.ID", layer: "core.party"},
	{pkg: "mpic/internal/core", file: "party.go", sym: "party.Send", layer: "core.party"},
	{pkg: "mpic/internal/core", file: "party.go", sym: "party.Deliver", layer: "core.party"},
	{pkg: "mpic/internal/core", file: "party.go", sym: "party.EndRound", layer: "core.party"},
	{pkg: "mpic/internal/core", file: "party.go", layer: "core.setup"},
	{pkg: "mpic/internal/core", file: "party_phases.go", sym: "*flag*", layer: "core.flag"},
	{pkg: "mpic/internal/core", file: "party_phases.go", sym: "party.isChild", layer: "core.flag"},
	{pkg: "mpic/internal/core", file: "party_phases.go", sym: "party.finishExchange", layer: "core.exchange"},
	{pkg: "mpic/internal/core", file: "party_phases.go", sym: "codedView.*", layer: "core.party"},
	{pkg: "mpic/internal/core", file: "party_phases.go", layer: "core.simulation"},
	{pkg: "mpic/internal/core", file: "engine.go", sym: "oracle.*", layer: "core.oracle"},
	{pkg: "mpic/internal/core", file: "engine.go", sym: "newOracle", layer: "core.oracle"},
	{pkg: "mpic/internal/core", file: "engine.go", layer: "core.setup"},
	{pkg: "mpic/internal/core", file: "whitebox.go", layer: "adversary"},
	{pkg: "mpic/internal/core", file: "transcript.go", layer: ""},
	{pkg: "mpic/internal/core", file: "layout.go", layer: ""},
	{pkg: "mpic/internal/core", file: "observer.go", layer: ""},
	{pkg: "mpic/internal/core", layer: "core.setup"},
	{pkg: "mpic/internal/meeting", layer: "core.meeting"},
	{pkg: "mpic/internal/ecc", layer: "core.exchange"},
	{pkg: "mpic/internal/potential", layer: "core.oracle"},

	{pkg: "mpic/internal/protocol", layer: "protocol"},
	{pkg: "mpic/internal/baseline", layer: "protocol"},
	{pkg: "mpic/internal/adversary", layer: "adversary"},

	// The send collector is shared by both engines; its own time belongs
	// to whichever engine step called it.
	{pkg: "mpic/internal/network", file: "network.go", sym: "Engine.collectSends", layer: ""},
	{pkg: "mpic/internal/network", file: "network.go", layer: "network.lockstep"},
	{pkg: "mpic/internal/network", layer: "network.des"},

	{pkg: "mpic", file: "grid.go", layer: "mpic.grid"},
	{pkg: "mpic", file: "shard.go", layer: "mpic.grid"},
	{pkg: "mpic", file: "observe.go", layer: "mpic.grid"},
	{pkg: "mpic", file: "gridstore.go", layer: "mpic.store"},
	{pkg: "mpic", file: "leasestore.go", layer: "mpic.store"},
	{pkg: "mpic", file: "filelock*", layer: "mpic.store"},
	{pkg: "mpic", layer: "core.setup"}, // scenario compilation: the Run call up to core.Run
	{pkg: "mpic/internal/gridspec", layer: "mpic.grid"},

	{pkg: "mpic/internal/service", layer: "service"},
	{pkg: "net/http", file: "server.go", layer: "service"},
	{pkg: "net/http/httptest", layer: "service"},
	{pkg: "net/http", file: "transport.go", layer: "harness"},
	{pkg: "net/http", file: "client.go", layer: "harness"},

	{pkg: "main", layer: "harness"},
	{pkg: "mpic/internal/experiments", layer: "harness"},
	{pkg: "mpic/internal/stats", layer: "harness"},
	{pkg: "mpic/internal/faults", layer: "harness"},

	{pkg: "mpic/internal/bitstring", layer: ""},
	{pkg: "mpic/internal/channel", layer: ""},
	{pkg: "mpic/internal/graph", layer: ""},
	{pkg: "mpic/internal/trace", layer: ""},
	{pkg: "mpic/internal/cores", layer: ""},
	{pkg: "mpic/internal/detrand", layer: ""},
}

// gcRoots mark samples of the collector's own goroutines (mark workers,
// sweeper, scavenger) and its stop-the-world phases.
var gcRoots = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.sweepone",
}

// splitFunc splits a fully qualified Go function name into its package
// path and its symbol within the package, normalized for matching:
// "(*T)" receivers become "T", and closure and generic suffixes are
// dropped, so "mpic/internal/core.Run.func2" is ("mpic/internal/core",
// "Run").
func splitFunc(fn string) (pkg, sym string) {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	pkg, sym = fn[:slash+1+dot], fn[slash+1+dot+1:]
	sym = strings.NewReplacer("(*", "", ")", "").Replace(sym)
	parts := strings.Split(sym, ".")
	for len(parts) > 1 {
		last := parts[len(parts)-1]
		if !strings.HasPrefix(last, "func") && !strings.HasPrefix(last, "gowrap") && strings.Trim(last, "0123456789") != "" {
			break
		}
		parts = parts[:len(parts)-1]
	}
	return pkg, strings.Join(parts, ".")
}

// frameLayer classifies one frame; "" means it passes through.
func frameLayer(f frame) string {
	pkg, sym := splitFunc(f.fn)
	file := path.Base(f.file)
	for _, r := range layerRules {
		if r.pkg != pkg {
			continue
		}
		if r.file != "" {
			if ok, _ := path.Match(r.file, file); !ok {
				continue
			}
		}
		if r.sym != "" {
			if ok, _ := path.Match(r.sym, sym); !ok {
				continue
			}
		}
		return r.layer
	}
	if pkg == "mpic" || strings.HasPrefix(pkg, "mpic/") {
		return "other"
	}
	return ""
}

// sampleLayer credits a sample to its innermost frame that belongs to a
// layer. A stack made only of pass-through frames is background garbage
// collection when a collector frame is on it, and "other" otherwise.
func sampleLayer(stack []frame, memo map[frame]string) string {
	for _, f := range stack {
		l, ok := memo[f]
		if !ok {
			l = frameLayer(f)
			memo[f] = l
		}
		if l != "" {
			return l
		}
	}
	for _, f := range stack {
		for _, root := range gcRoots {
			if strings.HasPrefix(f.fn, root) {
				return "runtime.gc"
			}
		}
	}
	return "other"
}

// attribute sums the samples' CPU time per layer, in nanoseconds.
func attribute(samples []cpuSample) map[string]int64 {
	out := make(map[string]int64, len(layers))
	memo := map[frame]string{}
	for _, s := range samples {
		out[sampleLayer(s.stack, memo)] += s.nanos
	}
	return out
}
