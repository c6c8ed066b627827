package ecc

import (
	"bytes"
	"testing"
)

// FuzzRSDecode drives the Reed–Solomon decoder with arbitrary codes,
// messages, error patterns and erasure lists, and checks its contract:
//
//   - Decode never panics;
//   - a received word of the wrong length, or an erasure position outside
//     [0, n), is an error;
//   - with distinct in-range erasures and 2·errors + erasures ≤ n−k, Decode
//     returns the message.
//
// n is clamped to [2, 255] and k to [1, n−1]. msg supplies the first k
// message symbols (zero-padded). errs is read as (position, value) pairs:
// the value is XORed into the codeword at position mod n. Each erasure
// byte b names position b−1, so 0 is the out-of-range position −1 and,
// for n < 255, the top byte values name positions past the end. short
// drops the word's last symbol. Plain `go test` replays the seed corpus
// in testdata/fuzz/FuzzRSDecode; `make fuzz` explores further.
func FuzzRSDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, nb, kb uint8, msg, errs, erasures []byte, short bool) {
		n := 2 + int(nb)%254
		k := 1 + int(kb)%(n-1)
		rs, err := NewRS(n, k)
		if err != nil {
			t.Fatalf("NewRS(%d, %d): %v", n, k, err)
		}
		m := make([]byte, k)
		copy(m, msg)
		cw, err := rs.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		recv := append([]byte(nil), cw...)
		for i := 0; i+1 < len(errs); i += 2 {
			recv[int(errs[i])%n] ^= errs[i+1]
		}
		pos := make([]int, len(erasures))
		inRange, distinct := true, true
		erased := make([]bool, n)
		for i, b := range erasures {
			pos[i] = int(b) - 1
			switch {
			case pos[i] < 0 || pos[i] >= n:
				inRange = false
			case erased[pos[i]]:
				distinct = false
			default:
				erased[pos[i]] = true
			}
		}
		if short {
			recv = recv[:n-1]
		}

		got, err := rs.Decode(recv, pos)
		if short || !inRange {
			if err == nil {
				t.Fatalf("n=%d k=%d short=%v erasures=%v: decoded an out-of-range input", n, k, short, pos)
			}
			return
		}
		if !distinct {
			return
		}
		nerr := 0
		for p := range recv {
			if !erased[p] && recv[p] != cw[p] {
				nerr++
			}
		}
		if 2*nerr+len(pos) > n-k {
			return
		}
		if err != nil {
			t.Fatalf("n=%d k=%d: %d errors + %d erasures within capacity: %v", n, k, nerr, len(pos), err)
		}
		if !bytes.Equal(got, m) {
			t.Fatalf("n=%d k=%d: %d errors + %d erasures decoded to the wrong message", n, k, nerr, len(pos))
		}
	})
}
