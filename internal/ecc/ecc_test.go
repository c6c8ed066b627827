package ecc

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGF256Tables(t *testing.T) {
	g := newGF256()
	if g.exp[0] != 1 {
		t.Error("α^0 != 1")
	}
	if g.mul(0, 5) != 0 || g.mul(5, 0) != 0 {
		t.Error("0 not absorbing")
	}
	for a := 1; a < 256; a++ {
		if g.mul(byte(a), g.inv(byte(a))) != 1 {
			t.Fatalf("a * a^-1 != 1 for a=%d", a)
		}
		if g.div(byte(a), byte(a)) != 1 {
			t.Fatalf("a/a != 1 for a=%d", a)
		}
	}
}

func TestGF256MulProperties(t *testing.T) {
	g := newGF256()
	f := func(a, b, c byte) bool {
		if g.mul(a, b) != g.mul(b, a) {
			return false
		}
		if g.mul(g.mul(a, b), c) != g.mul(a, g.mul(b, c)) {
			return false
		}
		return g.mul(a, b^c) == g.mul(a, b)^g.mul(a, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGF256Pow(t *testing.T) {
	g := newGF256()
	if g.pow(2, 255) != 1 {
		t.Error("α^255 != 1")
	}
	if g.pow(2, -1) != g.inv(2) {
		t.Error("negative exponent wrong")
	}
	if g.pow(0, 0) != 1 || g.pow(0, 5) != 0 {
		t.Error("0 powers wrong")
	}
}

func TestGF256DivPanics(t *testing.T) {
	g := newGF256()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic dividing by zero")
		}
	}()
	g.div(1, 0)
}

func TestRSParams(t *testing.T) {
	if _, err := NewRS(10, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewRS(10, 10); err == nil {
		t.Error("k=n accepted")
	}
	if _, err := NewRS(256, 100); err == nil {
		t.Error("n>255 accepted")
	}
}

func TestRSEncodeNoErrorRoundtrip(t *testing.T) {
	rs, err := NewRS(15, 9)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	cw, err := rs.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cw) != 15 {
		t.Fatalf("codeword length %d, want 15", len(cw))
	}
	got, err := rs.Decode(cw, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range msg {
		if got[i] != msg[i] {
			t.Fatalf("decoded[%d] = %d, want %d", i, got[i], msg[i])
		}
	}
}

func TestRSEncodeLengthCheck(t *testing.T) {
	rs, _ := NewRS(15, 9)
	if _, err := rs.Encode(make([]byte, 8)); err == nil {
		t.Error("short message accepted")
	}
	if _, err := rs.Decode(make([]byte, 14), nil); err == nil {
		t.Error("short received word accepted")
	}
	if _, err := rs.Decode(make([]byte, 15), []int{20}); err == nil {
		t.Error("out-of-range erasure accepted")
	}
}

func TestRSCorrectsErrors(t *testing.T) {
	rs, _ := NewRS(15, 9) // corrects up to 3 errors
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		msg := randBytes(rng, 9)
		cw, _ := rs.Encode(msg)
		nerr := rng.Intn(4) // 0..3
		corrupted := corrupt(rng, cw, nerr)
		got, err := rs.Decode(corrupted, nil)
		if err != nil {
			t.Fatalf("trial %d: decode failed with %d errors: %v", trial, nerr, err)
		}
		if !bytesEq(got, msg) {
			t.Fatalf("trial %d: wrong decode with %d errors", trial, nerr)
		}
	}
}

func TestRSCorrectsErasures(t *testing.T) {
	rs, _ := NewRS(15, 9) // corrects up to 6 erasures
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		msg := randBytes(rng, 9)
		cw, _ := rs.Encode(msg)
		nera := rng.Intn(7) // 0..6
		word := make([]byte, len(cw))
		copy(word, cw)
		perm := rng.Perm(len(cw))
		var erasures []int
		for _, p := range perm[:nera] {
			word[p] = byte(rng.Intn(256)) // garbage; decoder must ignore
			erasures = append(erasures, p)
		}
		got, err := rs.Decode(word, erasures)
		if err != nil {
			t.Fatalf("trial %d: decode failed with %d erasures: %v", trial, nera, err)
		}
		if !bytesEq(got, msg) {
			t.Fatalf("trial %d: wrong decode with %d erasures", trial, nera)
		}
	}
}

func TestRSCorrectsMixed(t *testing.T) {
	rs, _ := NewRS(31, 19) // n-k = 12: 2e + f <= 12
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		msg := randBytes(rng, 19)
		cw, _ := rs.Encode(msg)
		e := rng.Intn(4)        // 0..3 errors
		f := rng.Intn(13 - 2*e) // erasures within budget
		word := make([]byte, len(cw))
		copy(word, cw)
		perm := rng.Perm(len(cw))
		var erasures []int
		for _, p := range perm[:f] {
			word[p] ^= byte(1 + rng.Intn(255))
			erasures = append(erasures, p)
		}
		for _, p := range perm[f : f+e] {
			word[p] ^= byte(1 + rng.Intn(255))
		}
		got, err := rs.Decode(word, erasures)
		if err != nil {
			t.Fatalf("trial %d: decode failed with e=%d f=%d: %v", trial, e, f, err)
		}
		if !bytesEq(got, msg) {
			t.Fatalf("trial %d: wrong decode with e=%d f=%d", trial, e, f)
		}
	}
}

func TestRSRejectsBeyondCapacity(t *testing.T) {
	rs, _ := NewRS(15, 9)
	rng := rand.New(rand.NewSource(4))
	rejectedOrWrong := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		msg := randBytes(rng, 9)
		cw, _ := rs.Encode(msg)
		corrupted := corrupt(rng, cw, 5) // capacity is 3
		got, err := rs.Decode(corrupted, nil)
		if err != nil || !bytesEq(got, msg) {
			rejectedOrWrong++
		}
	}
	if rejectedOrWrong < trials*9/10 {
		t.Errorf("only %d/%d overloaded words failed to decode to the original; decoder claims impossible corrections", rejectedOrWrong, trials)
	}
	// Too many erasures must be rejected outright.
	if _, err := rs.Decode(make([]byte, 15), []int{0, 1, 2, 3, 4, 5, 6}); !errors.Is(err, ErrUncorrectable) {
		t.Errorf("7 erasures: got %v, want ErrUncorrectable", err)
	}
}

// Property: decode(encode(m) + e errors) == m whenever 2e <= n-k.
func TestRSProperty(t *testing.T) {
	rs, _ := NewRS(20, 12)
	f := func(seed int64, eRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		msg := randBytes(rng, 12)
		cw, err := rs.Encode(msg)
		if err != nil {
			return false
		}
		e := int(eRaw) % 5 // 0..4 (capacity 4)
		corrupted := corrupt(rng, cw, e)
		got, err := rs.Decode(corrupted, nil)
		return err == nil && bytesEq(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestBitCodecRoundtrip(t *testing.T) {
	c, err := NewBitCodec(128, 31, 19)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	msg := randBits(rng, 128)
	enc, err := c.EncodeBits(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != c.CodewordBits() {
		t.Fatalf("encoded %d bits, want %d", len(enc), c.CodewordBits())
	}
	got, err := c.DecodeBits(enc, make([]bool, len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytesEq(got, msg) {
		t.Fatal("clean roundtrip failed")
	}
}

func TestBitCodecCorrectsBitErrorsAndErasures(t *testing.T) {
	c, err := NewBitCodec(64, 31, 19)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		msg := randBits(rng, 64)
		enc, _ := c.EncodeBits(msg)
		erased := make([]bool, len(enc))
		// Flip bits inside up to 3 symbols and erase bits of up to 4 more:
		// 2*3 + 4 <= 12 symbol budget per block.
		symPerm := rng.Perm(31)
		for _, s := range symPerm[:3] {
			enc[s*8+rng.Intn(8)] ^= 1
		}
		for _, s := range symPerm[3:7] {
			b := s*8 + rng.Intn(8)
			erased[b] = true
			enc[b] = byte(rng.Intn(2))
		}
		got, err := c.DecodeBits(enc, erased)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytesEq(got, msg) {
			t.Fatalf("trial %d: wrong decode", trial)
		}
	}
}

func TestBitCodecMultiBlock(t *testing.T) {
	c, err := NewBitCodec(400, 15, 9) // 50 bytes -> 6 blocks
	if err != nil {
		t.Fatal(err)
	}
	if c.blocks != 6 {
		t.Fatalf("blocks = %d, want 6", c.blocks)
	}
	rng := rand.New(rand.NewSource(7))
	msg := randBits(rng, 400)
	enc, _ := c.EncodeBits(msg)
	// One error per block.
	for b := 0; b < 6; b++ {
		enc[b*15*8+rng.Intn(15*8)] ^= 1
	}
	got, err := c.DecodeBits(enc, make([]bool, len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytesEq(got, msg) {
		t.Fatal("multi-block decode failed")
	}
}

func TestBitCodecInputValidation(t *testing.T) {
	c, _ := NewBitCodec(64, 15, 9)
	if _, err := c.EncodeBits(make([]byte, 63)); err == nil {
		t.Error("wrong-length message accepted")
	}
	if _, err := c.DecodeBits(make([]byte, 3), make([]bool, 3)); err == nil {
		t.Error("wrong-length received accepted")
	}
	if _, err := NewBitCodec(64, 9, 15); err == nil {
		t.Error("k>n accepted")
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(256))
	}
	return out
}

func randBits(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(2))
	}
	return out
}

func corrupt(rng *rand.Rand, cw []byte, n int) []byte {
	out := make([]byte, len(cw))
	copy(out, cw)
	for _, p := range rng.Perm(len(cw))[:n] {
		out[p] ^= byte(1 + rng.Intn(255))
	}
	return out
}

func bytesEq(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// encodeBitsOracle is the encoder before AppendBits: pack the message
// into a byte slice, divide each block by the generator, and emit the
// message and parity symbols LSB first.
func encodeBitsOracle(c *BitCodec, msg []byte) []byte {
	packed := make([]byte, c.blocks*c.rs.K)
	for i, b := range msg {
		if b != 0 {
			packed[i/8] |= 1 << uint(i%8)
		}
	}
	var out []byte
	for blk := 0; blk < c.blocks; blk++ {
		data := packed[blk*c.rs.K : (blk+1)*c.rs.K]
		rem := make([]byte, len(c.rs.gen)-1)
		for _, m := range data {
			factor := m ^ rem[0]
			copy(rem, rem[1:])
			rem[len(rem)-1] = 0
			if factor != 0 {
				for i := 1; i < len(c.rs.gen); i++ {
					rem[i-1] ^= c.rs.gf.mul(c.rs.gen[i], factor)
				}
			}
		}
		for _, sym := range append(append([]byte(nil), data...), rem...) {
			for j := 0; j < 8; j++ {
				out = append(out, sym>>uint(j)&1)
			}
		}
	}
	return out
}

// TestAppendBitsMatchesOracle checks EncodeBits and AppendBits against
// the pre-AppendBits encoder on one- and multi-block codecs, message
// lengths that do and do not fill their last byte and block, and a dst
// that already holds bits; AppendBits into a buffer with room allocates
// nothing.
func TestAppendBitsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, tc := range []struct{ bits, n, k int }{
		{128, 31, 11}, {128, 31, 19}, {64, 15, 9}, {400, 15, 9}, {77, 15, 9}, {5, 7, 3}, {2000, 255, 223},
	} {
		c, err := NewBitCodec(tc.bits, tc.n, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			msg := randBits(rng, tc.bits)
			want := encodeBitsOracle(c, msg)
			enc, err := c.EncodeBits(msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytesEq(enc, want) {
				t.Fatalf("%+v trial %d: EncodeBits differs from the oracle", tc, trial)
			}
			prefix := []byte{1, 0, 1}
			got, err := c.AppendBits(append(make([]byte, 0, len(prefix)+len(want)), prefix...), msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytesEq(got[:len(prefix)], prefix) || !bytesEq(got[len(prefix):], want) {
				t.Fatalf("%+v trial %d: AppendBits differs from the oracle", tc, trial)
			}
		}
		msg := randBits(rng, tc.bits)
		buf := make([]byte, 0, c.CodewordBits())
		if allocs := testing.AllocsPerRun(10, func() { _, _ = c.AppendBits(buf, msg) }); allocs != 0 {
			t.Errorf("%+v: AppendBits with room allocates %.0f times", tc, allocs)
		}
	}
}
