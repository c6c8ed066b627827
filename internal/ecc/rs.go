package ecc

import (
	"errors"
	"fmt"
)

// ErrUncorrectable is returned when the received word has more
// errors/erasures than the code can correct (2·errors + erasures > n−k).
var ErrUncorrectable = errors.New("ecc: too many errors/erasures to correct")

// RS is a systematic Reed–Solomon code over GF(256) with block length N
// and dimension K symbols; it corrects e errors and f erasures whenever
// 2e + f <= N − K.
type RS struct {
	N, K int
	gf   *gf256
	gen  []byte // generator polynomial, high-to-low degree
}

// NewRS constructs an RS(n, k) codec. Requires 0 < k < n <= 255.
func NewRS(n, k int) (*RS, error) {
	if k <= 0 || k >= n || n > 255 {
		return nil, fmt.Errorf("ecc: invalid RS parameters n=%d k=%d", n, k)
	}
	// gen(x) = Π_{i=0}^{n-k-1} (x - α^i)
	gen := []byte{1}
	for i := 0; i < n-k; i++ {
		gen = field.polyMul(gen, []byte{1, field.exp[i]})
	}
	return &RS{N: n, K: k, gf: field, gen: gen}, nil
}

// Encode produces the systematic codeword for msg (len K): the message
// followed by N−K parity symbols.
func (c *RS) Encode(msg []byte) ([]byte, error) {
	if len(msg) != c.K {
		return nil, fmt.Errorf("ecc: message length %d, want %d", len(msg), c.K)
	}
	out := make([]byte, c.N)
	copy(out, msg)
	c.parity(out)
	return out, nil
}

// parity fills word[K:N] with the parity symbols of the message in
// word[:K], making word the systematic codeword.
func (c *RS) parity(word []byte) {
	// Polynomial long division of msg·x^(n-k) by gen; remainder is parity.
	msg, rem := word[:c.K], word[c.K:c.N]
	clear(rem)
	for _, m := range msg {
		factor := m ^ rem[0]
		copy(rem, rem[1:])
		rem[len(rem)-1] = 0
		if factor != 0 {
			for i := 1; i < len(c.gen); i++ {
				rem[i-1] ^= c.gf.mul(c.gen[i], factor)
			}
		}
	}
}

// Decode corrects recv in place (recv has length N; erasures lists the
// positions known to be unreliable) and returns the K message symbols.
// The content of erased positions in recv is ignored.
func (c *RS) Decode(recv []byte, erasures []int) ([]byte, error) {
	if len(recv) != c.N {
		return nil, fmt.Errorf("ecc: received length %d, want %d", len(recv), c.N)
	}
	word := make([]byte, c.N)
	copy(word, recv)
	for _, p := range erasures {
		if p < 0 || p >= c.N {
			return nil, fmt.Errorf("ecc: erasure position %d out of range", p)
		}
		word[p] = 0
	}
	gf := c.gf
	nk := c.N - c.K
	if len(erasures) > nk {
		return nil, ErrUncorrectable
	}

	// Syndromes S_i = word(α^i), i = 0..n-k-1 (word as a polynomial with
	// word[0] the highest-degree coefficient).
	synd := make([]byte, nk)
	allZero := true
	for i := 0; i < nk; i++ {
		synd[i] = gf.polyEval(word, gf.exp[i])
		if synd[i] != 0 {
			allZero = false
		}
	}
	if allZero {
		return word[:c.K], nil
	}

	// Erasure locator Γ(x) = Π (1 - X_j x), X_j = α^(position exponent).
	// Positions are indexed so that position p corresponds to power
	// n-1-p (word[0] is the coefficient of x^(n-1)).
	gamma := []byte{1}
	for _, p := range erasures {
		xj := gf.pow(2, c.N-1-p)
		gamma = gf.polyMul(gamma, []byte{gf.mul(xj, 1), 1}) // (X_j x + 1), low-to-high? see note
	}
	// Note: we keep locator polynomials in LOW-to-high degree order from
	// here on; gamma above was built accordingly: polyMul treats slices as
	// high-to-low, so flip once.
	gamma = reverse(gamma)

	// Forney syndromes: Ξ(x) = S(x)·Γ(x) mod x^(n-k), with S low-to-high.
	xi := polyMulLow(gf, synd, gamma, nk)

	f := len(erasures)
	// Berlekamp–Massey on Forney syndromes for the error locator λ(x).
	lambda, err := c.berlekampMassey(xi, f)
	if err != nil {
		return nil, err
	}

	// Combined locator ψ(x) = λ(x)·Γ(x), low-to-high.
	psi := polyMulLow(gf, lambda, gamma, c.N+1)

	// Chien search: roots of ψ give error/erasure locations.
	var positions []int
	for p := 0; p < c.N; p++ {
		xInv := gf.pow(2, -(c.N - 1 - p)) // α^-(power of position p)
		if evalLow(gf, psi, xInv) == 0 {
			positions = append(positions, p)
		}
	}
	if len(positions) != len(psi)-1 {
		// Locator degree does not match the number of roots found: the
		// error pattern exceeds the code's capability.
		return nil, ErrUncorrectable
	}

	// Forney algorithm for magnitudes: Ω(x) = S(x)·ψ(x) mod x^(n-k).
	omega := polyMulLow(gf, synd, psi, nk)
	psiDeriv := formalDerivative(psi)
	for _, p := range positions {
		x := gf.pow(2, c.N-1-p)
		xInv := gf.inv(x)
		denom := evalLow(gf, psiDeriv, xInv)
		if denom == 0 {
			return nil, ErrUncorrectable
		}
		num := evalLow(gf, omega, xInv)
		// Forney with b = 0 syndromes: e_j = X_j · Ω(X_j⁻¹) / ψ'(X_j⁻¹).
		mag := gf.mul(x, gf.div(num, denom))
		word[p] ^= mag
	}

	// Verify: recompute syndromes.
	for i := 0; i < nk; i++ {
		if gf.polyEval(word, gf.exp[i]) != 0 {
			return nil, ErrUncorrectable
		}
	}
	return word[:c.K], nil
}

// berlekampMassey finds the error-locator polynomial (low-to-high degree)
// from the Forney syndromes, given f known erasures.
func (c *RS) berlekampMassey(synd []byte, f int) ([]byte, error) {
	gf := c.gf
	nk := c.N - c.K
	lambda := []byte{1}
	b := []byte{1}
	l := 0
	m := 1
	bb := byte(1)
	for i := 0; i < nk-f; i++ {
		n := i + f
		var delta byte
		for j := 0; j <= l && j < len(lambda); j++ {
			if n-j < len(synd) && n-j >= 0 {
				delta ^= gf.mul(lambda[j], synd[n-j])
			}
		}
		if delta == 0 {
			m++
			continue
		}
		if 2*l <= i {
			t := make([]byte, len(lambda))
			copy(t, lambda)
			coef := gf.div(delta, bb)
			lambda = polyAddShift(gf, lambda, b, coef, m)
			l = i + 1 - l
			b = t
			bb = delta
			m = 1
		} else {
			coef := gf.div(delta, bb)
			lambda = polyAddShift(gf, lambda, b, coef, m)
			m++
		}
	}
	if l > (nk-f)/2 {
		return nil, ErrUncorrectable
	}
	return lambda, nil
}

// polyAddShift returns a(x) + coef·x^shift·b(x), low-to-high degree.
func polyAddShift(gf *gf256, a, b []byte, coef byte, shift int) []byte {
	n := len(a)
	if len(b)+shift > n {
		n = len(b) + shift
	}
	out := make([]byte, n)
	copy(out, a)
	for i, c := range b {
		out[i+shift] ^= gf.mul(c, coef)
	}
	return trimHigh(out)
}

// polyMulLow multiplies two low-to-high polynomials, truncating to maxLen
// coefficients.
func polyMulLow(gf *gf256, a, b []byte, maxLen int) []byte {
	out := make([]byte, min(len(a)+len(b)-1, maxLen))
	for i, ca := range a {
		if ca == 0 {
			continue
		}
		for j, cb := range b {
			if i+j >= maxLen {
				break
			}
			out[i+j] ^= gf.mul(ca, cb)
		}
	}
	return trimHigh(out)
}

// evalLow evaluates a low-to-high polynomial at x.
func evalLow(gf *gf256, p []byte, x byte) byte {
	var y byte
	for i := len(p) - 1; i >= 0; i-- {
		y = gf.mul(y, x) ^ p[i]
	}
	return y
}

// formalDerivative returns p'(x) for low-to-high p over GF(2^8): odd-power
// coefficients survive.
func formalDerivative(p []byte) []byte {
	if len(p) <= 1 {
		return []byte{0}
	}
	out := make([]byte, len(p)-1)
	for i := 1; i < len(p); i++ {
		if i%2 == 1 {
			out[i-1] = p[i]
		}
	}
	return trimHigh(out)
}

func trimHigh(p []byte) []byte {
	n := len(p)
	for n > 1 && p[n-1] == 0 {
		n--
	}
	return p[:n]
}

func reverse(p []byte) []byte {
	out := make([]byte, len(p))
	for i, c := range p {
		out[len(p)-1-i] = c
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
