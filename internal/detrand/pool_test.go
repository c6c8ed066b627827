package detrand

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestGetRandMatchesFreshSource draws from a pooled generator in mixed
// ways, leaving bytes buffered by an odd-length Read, hands it back and
// takes it again at seed s: its next draws must be those of
// rand.New(rand.NewSource(s)). The pool returns the generator just put
// back unless a collection empties it in between, so the loop runs
// enough rounds to reuse generators whatever the collector does.
func TestGetRandMatchesFreshSource(t *testing.T) {
	seeds := []int64{0, -1, math.MaxInt32, math.MaxInt32 + 1, math.MinInt64}
	reused := 0
	for round := 0; round < 20; round++ {
		for _, s := range seeds {
			r := GetRand(s ^ int64(round+1))
			r.Float64()
			r.Intn(1000)
			r.Read(make([]byte, 5))
			PutRand(r)

			got, want := GetRand(s), rand.New(rand.NewSource(s))
			if got == r {
				reused++
			}
			for i := 0; i < 3; i++ {
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d: Float64 %v, want %v", s, g, w)
				}
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d: Int63 %v, want %v", s, g, w)
				}
				if g, w := got.Intn(7), want.Intn(7); g != w {
					t.Fatalf("seed %d: Intn(7) %v, want %v", s, g, w)
				}
				gb, wb := make([]byte, 2*i+3), make([]byte, 2*i+3)
				got.Read(gb)
				want.Read(wb)
				if !bytes.Equal(gb, wb) {
					t.Fatalf("seed %d: Read %x, want %x", s, gb, wb)
				}
				if g, w := got.Perm(9), want.Perm(9); !slices.Equal(g, w) {
					t.Fatalf("seed %d: Perm %v, want %v", s, g, w)
				}
			}
			PutRand(got)
		}
	}
	if reused == 0 {
		t.Fatal("the pool never handed a generator back")
	}
	PutRand(nil)
}

// TestGetRandConcurrent takes, draws from and returns pooled generators
// from several goroutines at once, as a parallel grid's runs do; each
// stream must still be its seed's fresh stream.
func TestGetRandConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := int64(w*1000 + i)
				got, want := GetRand(s), rand.New(rand.NewSource(s))
				for k := 0; k < 10; k++ {
					if g, x := got.Int63(), want.Int63(); g != x {
						t.Errorf("seed %d: draw %d is %d, want %d", s, k, g, x)
						break
					}
				}
				PutRand(got)
			}
		}(w)
	}
	wg.Wait()
}
