package mpic_test

// Benchmark harness: one benchmark per evaluation artefact of DESIGN.md
// §4 (the Table 1 regeneration and every figure-style experiment), plus
// micro-benchmarks of the substrates. The experiment benchmarks run the
// corresponding experiment in quick mode and report domain metrics
// (success rate, blowup) alongside time; `go run ./cmd/mpicbench` runs
// the full-size versions that EXPERIMENTS.md records.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"mpic"

	"mpic/internal/adversary"
	"mpic/internal/core"
	"mpic/internal/ecc"
	"mpic/internal/experiments"
	"mpic/internal/graph"
	"mpic/internal/hashing"
	"mpic/internal/protocol"

	"mpic/internal/bitstring"
)

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	cfg := experiments.Config{Trials: 2, Seed: 1, Quick: true}
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := experiments.Run(name, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the paper's Table 1 (E-T1).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFigNoiseSweep is E-F1: success probability vs noise fraction.
func BenchmarkFigNoiseSweep(b *testing.B) { benchExperiment(b, "noise-sweep") }

// BenchmarkFigRateVsSize is E-F2: constant-rate evidence across sizes.
func BenchmarkFigRateVsSize(b *testing.B) { benchExperiment(b, "rate-size") }

// BenchmarkFigCCVsNoise is E-F3: communication vs noise budget.
func BenchmarkFigCCVsNoise(b *testing.B) { benchExperiment(b, "cc-noise") }

// BenchmarkFigRewindWave is E-F4: recovery latency vs line length.
func BenchmarkFigRewindWave(b *testing.B) { benchExperiment(b, "rewind-wave") }

// BenchmarkFigPotential is E-F5: per-iteration potential growth.
func BenchmarkFigPotential(b *testing.B) { benchExperiment(b, "potential") }

// BenchmarkFigCollisions is E-F6: hash collisions vs the ε|Π| envelope.
func BenchmarkFigCollisions(b *testing.B) { benchExperiment(b, "collisions") }

// BenchmarkFigAblation is E-F7: flag-passing / rewind ablations.
func BenchmarkFigAblation(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkFigDeltaBias is E-F8: δ-biased vs PRF seed expansion.
func BenchmarkFigDeltaBias(b *testing.B) { benchExperiment(b, "delta-bias") }

// BenchmarkFigSeedAttack is E-F9: randomness-exchange attacks vs the ECC.
func BenchmarkFigSeedAttack(b *testing.B) { benchExperiment(b, "seed-attack") }

// BenchmarkFigRounds is E-F10: round-complexity blowup.
func BenchmarkFigRounds(b *testing.B) { benchExperiment(b, "rounds") }

// BenchmarkFigFullyUtilized is E-F11: the cost of the fully-utilized
// model conversion.
func BenchmarkFigFullyUtilized(b *testing.B) { benchExperiment(b, "fully-utilized") }

// BenchmarkFigCollisionAttack is E-F12: the §6.1 seed-aware collision
// attack vs hash length.
func BenchmarkFigCollisionAttack(b *testing.B) { benchExperiment(b, "collision-attack") }

// BenchmarkSchemeEndToEnd times one complete coded simulation per scheme
// on a moderately sized network, reporting the communication blowup.
func BenchmarkSchemeEndToEnd(b *testing.B) {
	for _, s := range []mpic.Scheme{mpic.Algorithm1, mpic.AlgorithmA, mpic.AlgorithmB, mpic.AlgorithmC} {
		b.Run(s.String(), func(b *testing.B) {
			var blowup float64
			for i := 0; i < b.N; i++ {
				res, err := mpic.RunScenario(context.Background(), mpic.Scenario{
					Topology: mpic.RandomTopology(8),
					Noise:    mpic.RandomNoise(0.0005),
					Scheme:   s, Seed: int64(i + 1), IterFactor: 50,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Success {
					b.Fatalf("iteration %d failed", i)
				}
				blowup += res.Blowup
			}
			b.ReportMetric(blowup/float64(b.N), "blowup")
		})
	}
}

// BenchmarkScalingNetworkSize times Algorithm A end to end as the
// network grows (noiseless): the per-node simulation cost.
func BenchmarkScalingNetworkSize(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := mpic.RunScenario(context.Background(), mpic.Scenario{Topology: mpic.Line(n), Seed: 1, IterFactor: 10})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Success {
					b.Fatal("run failed")
				}
			}
		})
	}
}

// BenchmarkRunnerArena measures back-to-back scenario runs with and
// without the Runner's buffer arena: the reused variant must allocate
// measurably less (the per-link prefix-hash seed rows are the dominant
// per-run allocation; see core.Arena).
func BenchmarkRunnerArena(b *testing.B) {
	sc := mpic.Scenario{
		Topology:   mpic.Clique(6),
		Workload:   mpic.RandomTraffic(120),
		Scheme:     mpic.AlgorithmA,
		Seed:       1,
		IterFactor: 10,
	}
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mpic.RunScenario(context.Background(), sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("runner", func(b *testing.B) {
		runner := mpic.NewRunner()
		defer runner.Close()
		if _, err := runner.Run(context.Background(), sc); err != nil {
			b.Fatal(err) // warm the arena outside the timed loop
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := runner.Run(context.Background(), sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRunLockstep is one default Runner.Run in the shape of the
// repo benchmark's scenario-lockstep workload: a random 12-party graph,
// 150 rounds of random traffic, Algorithm A at noise rate 0.0003 and
// IterFactor 32, on one Runner, with the seed cycling over 64 values so
// the mean covers a spread of noise patterns. `make bench-core` runs it.
func BenchmarkRunLockstep(b *testing.B) {
	runner := mpic.NewRunner()
	defer runner.Close()
	sc := mpic.Scenario{
		Topology:   mpic.RandomTopology(12),
		Workload:   mpic.RandomTraffic(150),
		Scheme:     mpic.AlgorithmA,
		Noise:      mpic.RandomNoise(0.0003),
		IterFactor: 32,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.Seed = int64(i%64 + 1)
		if _, err := runner.Run(context.Background(), sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridSession measures the overhead of the durable-session
// layers on a small grid: the bare engine, the same grid narrating every
// iteration through a discarding progress sink, and the same grid
// persisting every completed cell through a FileGridStore. Progress cost
// is dominated by the per-iteration callback + mutex; store cost by one
// journal append and fsync per cell. Both are opt-in and must stay invisible
// when off — the `-compare` wall-clock gate enforces that end to end.
func BenchmarkGridSession(b *testing.B) {
	mkGrid := func() mpic.Grid {
		return sweep{
			Base: mpic.Scenario{
				Topology:   mpic.Line(4),
				Workload:   mpic.RandomTraffic(40),
				Scheme:     mpic.AlgorithmA,
				Noise:      mpic.RandomNoise(0),
				Seed:       3,
				IterFactor: 12,
			},
			Rates:  []float64{0, 0.001},
			Trials: 2,
		}.grid()
	}
	run := func(b *testing.B, mut func(*mpic.Grid)) {
		runner := mpic.NewRunner()
		defer runner.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			grid := mkGrid()
			mut(&grid)
			if err := runner.RunGrid(context.Background(), grid, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("bare", func(b *testing.B) {
		run(b, func(*mpic.Grid) {})
	})
	b.Run("progress", func(b *testing.B) {
		run(b, func(g *mpic.Grid) {
			g.Progress = func(mpic.GridProgress) {}
		})
	})
	b.Run("progresslog", func(b *testing.B) {
		run(b, func(g *mpic.Grid) {
			g.Progress = mpic.NewProgressLog(io.Discard)
		})
	})
	b.Run("store", func(b *testing.B) {
		dir := b.TempDir()
		n := 0
		run(b, func(g *mpic.Grid) {
			// A fresh file per iteration: resuming a finished session would
			// otherwise measure the restore path, not the persist path.
			n++
			g.Store = mpic.NewFileGridStore(filepath.Join(dir, fmt.Sprintf("s%d.json", n)))
		})
	})
}

// BenchmarkFileGridStoreSave measures the durable session's per-cell
// cost: one Save that adds a single completed cell to a live session
// already holding 10, 100 or 1000 cells — the engine's call after every
// completion. The session file is reset outside the timer, so every
// iteration saves into the same size; an untimed Save of one cell goes
// first, because the first write to a just-created file also pays the
// filesystem's commit of that file, which a running session pays once.
func BenchmarkFileGridStoreSave(b *testing.B) {
	const spec = "bench-store-save"
	for _, held := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("cells=%d", held), func(b *testing.B) {
			cells := make([]mpic.StoredCell, held+2)
			for i := range cells {
				rate := 0.002 * float64(i) / float64(len(cells))
				key := mpic.GridKey{N: 4 + 2*(i%2), Scheme: mpic.AlgorithmA, Rate: rate}
				cells[i] = mpic.StoredCell{Index: i, Key: key, Cell: mpic.SweepCell{
					N: key.N, Scheme: key.Scheme, Rate: rate, Trials: 1, Successes: 1,
					Blowups: []float64{2.5 + rate}, Iterations: []float64{48}, Corruptions: int64(i % 7),
				}}
			}
			dir := b.TempDir()
			base := filepath.Join(dir, "base.json")
			if err := mpic.NewFileGridStore(base).Save(spec, cells[:held]); err != nil {
				b.Fatal(err)
			}
			data, err := os.ReadFile(base)
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(dir, "session.json")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
					b.Fatal(err)
				}
				// Synced here, so the timed save's fsync flushes only what
				// the save itself wrote.
				if err := writeSynced(path, data); err != nil {
					b.Fatal(err)
				}
				store := mpic.NewFileGridStore(path)
				if _, err := store.Load(spec); err != nil {
					b.Fatal(err)
				}
				if err := store.Save(spec, cells[:held+1]); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := store.Save(spec, cells); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// writeSynced writes data to path and fsyncs it.
func writeSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// BenchmarkMicroInnerProductHashReference measures one τ=8 hash over a
// 4096-bit transcript prefix through the per-word interface-dispatch
// reference evaluator (the original code path, kept as the golden
// oracle). The materialized-seed kernel on the same sweep is
// BenchmarkKernelSweep/tau=8/bits=4096 in internal/hashing (make
// bench-kernel).
func BenchmarkMicroInnerProductHashReference(b *testing.B) {
	h := hashing.NewInnerProductHash(8, 8192)
	src := hashing.NewPRFSource(1, 2)
	x := bitstring.NewBitVec(4096)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4096; i++ {
		x.Append(byte(rng.Intn(2)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Hash(x, src, 0)
	}
}

// BenchmarkMicroAGHPWord measures δ-biased stream generation (one word).
func BenchmarkMicroAGHPWord(b *testing.B) {
	src := hashing.NewAGHPSource(0x12345, 0x6789a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = src.Word(uint64(i % 1024))
	}
}

// BenchmarkMicroRSCodec measures one randomness-exchange codeword
// round trip with errors and erasures.
func BenchmarkMicroRSCodec(b *testing.B) {
	codec, err := ecc.NewBitCodec(128, 31, 11)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	msg := make([]byte, 128)
	for i := range msg {
		msg[i] = byte(rng.Intn(2))
	}
	enc, err := codec.EncodeBits(msg)
	if err != nil {
		b.Fatal(err)
	}
	erased := make([]bool, len(enc))
	recv := make([]byte, len(enc))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(recv, enc)
		for j := range erased {
			erased[j] = false
		}
		recv[i%len(recv)] ^= 1
		erased[(i*37)%len(erased)] = true
		if _, err := codec.DecodeBits(recv, erased); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroReferenceRun measures the noiseless reference executor.
func BenchmarkMicroReferenceRun(b *testing.B) {
	g := graph.Line(8)
	proto := protocol.NewRandom(g, 200, 0.5, 1, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = protocol.RunReference(proto)
	}
}

// benchIterations runs full-budget noiseless simulations on a line of 6
// under the given hash mode (epochRefresh applies to core.HashEpoch only;
// 0 = default) and reports amortized ns/iteration — the number that
// exposes whether per-iteration cost grows with transcript length.
func benchIterations(b *testing.B, iterFactor int, mode core.HashMode, epochRefresh int) {
	b.Helper()
	g := graph.Line(6)
	proto := protocol.NewRandom(g, 300, 0.5, 1, nil)
	params := core.ParamsFor(core.Alg1, g)
	params.IterFactor = iterFactor
	params.EarlyStop = false
	params.Oracle = false
	params.HashMode = mode
	params.EpochRefresh = epochRefresh
	b.ReportAllocs()
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Options{Protocol: proto, Params: params, Adversary: adversary.None{}})
		if err != nil {
			b.Fatal(err)
		}
		iters += res.Iterations
	}
	b.StopTimer()
	if iters > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iters), "ns/iteration")
	}
}

// BenchmarkMicroIteration measures one full scheme iteration (all four
// phases) on a line of 6, amortized, on the default epoch-refresh path.
// The seed code capped the budget at 4·|Π| because per-iteration hashing
// swept the whole transcript (quadratic total work); PR 1's kernel win
// raised it to 8·|Π|; the PR 2 incremental checkpoints made the
// consistency check cost Θ(growth), so the benchmark runs 32·|Π| — and
// with PR 9 the default mode is the fast path, so this measures exactly
// what an out-of-the-box run pays.
func BenchmarkMicroIteration(b *testing.B) {
	benchIterations(b, 32, core.HashEpoch, 0)
}

// BenchmarkScalingBudget sweeps the iteration budget with the quadratic
// (per-iteration seed blocks, now the HashLegacy escape hatch), the
// never-refreshed checkpointed (epoch mode with R beyond the budget), and
// the default epoch-refresh (PR 9) hash paths side by side. Quadratic
// ns/iteration grows linearly with IterFactor (mean transcript length is
// proportional to the budget); unrefreshed stays flat; epoch must stay
// within 10% of unrefreshed — the amortized Θ(|T|/R) refresh sweep is the
// entire fidelity premium of the default.
func BenchmarkScalingBudget(b *testing.B) {
	for _, itf := range []int{8, 16, 32} {
		for _, v := range []struct {
			name string
			mode core.HashMode
			r    int
		}{
			{"quadratic", core.HashLegacy, 0},
			{"unrefreshed", core.HashEpoch, 1 << 30},
			{"epoch", core.HashEpoch, 0},
		} {
			b.Run("iterfactor="+strconv.Itoa(itf)+"/"+v.name, func(b *testing.B) {
				benchIterations(b, itf, v.mode, v.r)
			})
		}
	}
}

// BenchmarkEpochRefresh sweeps the refresh interval R at a fixed 32·|Π|
// budget — the measurement behind core.DefaultEpochRefresh. Small R
// re-sweeps the transcript too often and converges on quadratic
// behavior; past the default the amortized refresh cost is already well
// under the growth sweep, so larger R buys fidelity loss (a collision
// persists up to R checks) with no measurable speed.
func BenchmarkEpochRefresh(b *testing.B) {
	for _, r := range []int{1, 4, 8, 32, 128, 256, 512, 1024, 4096} {
		b.Run("r="+strconv.Itoa(r), func(b *testing.B) {
			benchIterations(b, 32, core.HashEpoch, r)
		})
	}
}

// BenchmarkMicroNetworkTiming puts the lockstep engine and the
// virtual-time DES path side by side on the same scenario: the unit
// variant runs the classic synchronous loop, jitter runs the event heap
// with every symbol on time (pure DES overhead), and jitter-late pushes
// the jitter band past the deadline so the late-symbol machinery and
// insdel mapping engage too. The delta between unit and jitter is the
// cost of virtual time; PERF.md records the trajectory.
func BenchmarkMicroNetworkTiming(b *testing.B) {
	variants := []struct {
		name  string
		delay mpic.DelaySpec
	}{
		{"lockstep", nil},
		{"jitter-ontime", mpic.JitterDelay(0.5)}, // base 0.45 + 0.5 → never late
		{"jitter-late", mpic.JitterDelay(0.8)},   // tail crosses the deadline
		{"lognormal", mpic.LognormalDelay(0.25)},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			runner := mpic.NewRunner()
			defer runner.Close()
			sc := mpic.Scenario{
				Topology: mpic.Clique(6), Workload: mpic.RandomTraffic(60),
				Noise: mpic.RandomNoise(0.001), Scheme: mpic.AlgorithmA,
				IterFactor: 20, Delay: v.delay,
			}
			var iters int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.Seed = int64(i + 1)
				res, err := runner.Run(context.Background(), sc)
				if err != nil {
					b.Fatal(err)
				}
				iters += res.Iterations
			}
			b.StopTimer()
			if iters > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iters), "ns/iteration")
			}
		})
	}
}
