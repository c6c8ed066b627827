// Package ecc implements the constant-rate, constant-distance
// error-correcting code of Theorem 2.1 used by the randomness-exchange
// subprotocol (Algorithm 5): a systematic Reed–Solomon code over GF(256)
// with errors-and-erasures decoding. Deletions on the fully-utilized
// exchange rounds surface as erasures and substitutions as symbol errors,
// exactly the situation footnote 9 of the paper describes.
package ecc

// gf256 carries the log/antilog tables for GF(2^8) with the standard
// primitive polynomial x^8+x^4+x^3+x^2+1 (0x11d).
type gf256 struct {
	exp [512]byte
	log [256]int
}

// field is the one set of GF(256) tables, built at package load and
// shared read-only by every RS codec.
var field = newGF256()

func newGF256() *gf256 {
	g := &gf256{}
	x := 1
	for i := 0; i < 255; i++ {
		g.exp[i] = byte(x)
		g.log[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 512; i++ {
		g.exp[i] = g.exp[i-255]
	}
	return g
}

func (g *gf256) mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return g.exp[g.log[a]+g.log[b]]
}

func (g *gf256) div(a, b byte) byte {
	if b == 0 {
		panic("ecc: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return g.exp[g.log[a]+255-g.log[b]]
}

func (g *gf256) inv(a byte) byte {
	if a == 0 {
		panic("ecc: inverse of zero in GF(256)")
	}
	return g.exp[255-g.log[a]]
}

func (g *gf256) pow(a byte, n int) byte {
	if a == 0 {
		if n == 0 {
			return 1
		}
		return 0
	}
	e := (g.log[a] * n) % 255
	if e < 0 {
		e += 255
	}
	return g.exp[e]
}

// polyEval evaluates a polynomial (coefficients high-to-low degree) at x.
func (g *gf256) polyEval(p []byte, x byte) byte {
	var y byte
	for _, c := range p {
		y = g.mul(y, x) ^ c
	}
	return y
}

// polyMul multiplies two polynomials (high-to-low degree).
func (g *gf256) polyMul(a, b []byte) []byte {
	out := make([]byte, len(a)+len(b)-1)
	for i, ca := range a {
		if ca == 0 {
			continue
		}
		for j, cb := range b {
			out[i+j] ^= g.mul(ca, cb)
		}
	}
	return out
}
