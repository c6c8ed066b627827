package ecc

import "fmt"

// BitCodec encodes a fixed-size bit string for transmission over a binary
// channel with substitutions and deletions, as the randomness exchange
// needs: bits are packed into bytes, encoded with (possibly several) RS
// blocks, and sent bit-serially. On receive, a byte any of whose bits was
// deleted is marked as an erasure.
type BitCodec struct {
	msgBits  int
	msgBytes int
	blocks   int
	rs       *RS
}

// NewBitCodec returns a codec for messages of exactly msgBits bits with
// the given RS block parameters (n symbols per block, k data symbols).
func NewBitCodec(msgBits, n, k int) (*BitCodec, error) {
	rs, err := NewRS(n, k)
	if err != nil {
		return nil, err
	}
	msgBytes := (msgBits + 7) / 8
	blocks := (msgBytes + k - 1) / k
	if blocks == 0 {
		blocks = 1
	}
	return &BitCodec{msgBits: msgBits, msgBytes: msgBytes, blocks: blocks, rs: rs}, nil
}

// CodewordBits returns the fixed number of channel bits one message costs.
func (c *BitCodec) CodewordBits() int { return c.blocks * c.rs.N * 8 }

// EncodeBits encodes msg (exactly msgBits 0/1 bytes) to CodewordBits()
// channel bits, in a new slice.
func (c *BitCodec) EncodeBits(msg []byte) ([]byte, error) {
	return c.AppendBits(make([]byte, 0, c.CodewordBits()), msg)
}

// AppendBits appends msg's CodewordBits() channel bits to dst and
// returns the extended slice: EncodeBits for a caller that owns the
// buffer. It allocates nothing when dst has the room.
func (c *BitCodec) AppendBits(dst, msg []byte) ([]byte, error) {
	if len(msg) != c.msgBits {
		return nil, fmt.Errorf("ecc: message has %d bits, want %d", len(msg), c.msgBits)
	}
	var word [255]byte // one RS block; NewRS caps N at 255
	for blk := 0; blk < c.blocks; blk++ {
		// Pack the block's message bits, LSB first, then add its parity.
		clear(word[:c.rs.K])
		for i := blk * c.rs.K * 8; i < min(len(msg), (blk+1)*c.rs.K*8); i++ {
			if msg[i] != 0 {
				word[i/8-blk*c.rs.K] |= 1 << uint(i%8)
			}
		}
		c.rs.parity(word[:c.rs.N])
		for _, sym := range word[:c.rs.N] {
			for j := 0; j < 8; j++ {
				dst = append(dst, sym>>uint(j)&1)
			}
		}
	}
	return dst, nil
}

// DecodeBits reconstructs the message from received channel bits. erased
// marks bit positions whose symbol was deleted in transit (the content of
// those positions in recv is ignored). Both slices must have length
// CodewordBits().
func (c *BitCodec) DecodeBits(recv []byte, erased []bool) ([]byte, error) {
	want := c.CodewordBits()
	if len(recv) != want || len(erased) != want {
		return nil, fmt.Errorf("ecc: received %d bits (%d erasure flags), want %d", len(recv), len(erased), want)
	}
	msg := make([]byte, 0, c.msgBits)
	packed := make([]byte, 0, c.blocks*c.rs.K)
	for blk := 0; blk < c.blocks; blk++ {
		word := make([]byte, c.rs.N)
		var erasures []int
		for s := 0; s < c.rs.N; s++ {
			base := (blk*c.rs.N + s) * 8
			var sym byte
			bad := false
			for j := 0; j < 8; j++ {
				if erased[base+j] {
					bad = true
				}
				if recv[base+j] != 0 {
					sym |= 1 << uint(j)
				}
			}
			word[s] = sym
			if bad {
				erasures = append(erasures, s)
			}
		}
		data, err := c.rs.Decode(word, erasures)
		if err != nil {
			return nil, err
		}
		packed = append(packed, data...)
	}
	for i := 0; i < c.msgBits; i++ {
		msg = append(msg, packed[i/8]>>uint(i%8)&1)
	}
	return msg, nil
}
