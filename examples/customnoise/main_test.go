package main

import (
	"context"
	"testing"

	"mpic"
	"mpic/internal/gridspec"
)

// TestExternalRegistration proves the acceptance property end to end: a
// topology, a workload, and a noise model registered from outside the
// mpic package run through the typed Scenario API...
func TestExternalRegistration(t *testing.T) {
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("all-custom scenario failed: G*=%d/%d", res.GStar, res.NumChunks)
	}
	if res.Metrics.TotalCorruptions() == 0 {
		t.Error("every-kth noise never fired")
	}
}

// ...and through the string specs of internal/gridspec (the flag and
// request-body parser), which resolve names through the same registries.
func TestExternalNamesViaGridspec(t *testing.T) {
	sc, err := gridspec.Scenario{
		Topology: "wheel",
		N:        8,
		Workload: "echo",
		Noise:    "every-kth",
		Rate:     0.005,
		Seed:     9,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpic.RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("string-spec custom run failed: G*=%d/%d", res.GStar, res.NumChunks)
	}
}

// The registered names must be listed next to the built-ins.
func TestNamesListed(t *testing.T) {
	find := func(names []string, want string) bool {
		for _, n := range names {
			if n == want {
				return true
			}
		}
		return false
	}
	if !find(mpic.TopologyNames(), "wheel") {
		t.Error("wheel missing from TopologyNames")
	}
	if !find(mpic.WorkloadNames(), "echo") {
		t.Error("echo missing from WorkloadNames")
	}
	if !find(mpic.NoiseNames(), "every-kth") {
		t.Error("every-kth missing from NoiseNames")
	}
}
