package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto). It decodes only
// what layer attribution needs — each sample's CPU time and its stack of
// function names and source files — with the standard library alone.

// frame is one function on a sample's stack.
type frame struct {
	fn   string // fully qualified name, e.g. "mpic/internal/core.(*party).Send"
	file string // source file path as compiled
}

// cpuSample is one profile sample: the CPU time it stands for and its
// stack, innermost frame first, with inlined calls expanded.
type cpuSample struct {
	nanos int64
	stack []frame
}

// Field numbers of the profile.proto messages read here.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
	profPeriod      = 12

	valueTypeUnit = 2

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID       = 1
	functionName     = 2
	functionFilename = 4
)

// Protobuf wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// pbReader walks the fields of one protobuf message.
type pbReader struct{ b []byte }

var errTruncated = errors.New("profile: truncated protobuf")

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflows 64 bits")
}

// next reads a field key; ok is false at the end of the message.
func (r *pbReader) next() (field, wire int, ok bool, err error) {
	if len(r.b) == 0 {
		return 0, 0, false, nil
	}
	key, err := r.varint()
	if err != nil {
		return 0, 0, false, err
	}
	return int(key >> 3), int(key & 7), true, nil
}

func (r *pbReader) bytes() ([]byte, error) {
	n, err := r.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)) {
		return nil, errTruncated
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out, nil
}

func (r *pbReader) skip(wire int) error {
	var n int
	switch wire {
	case wireVarint:
		_, err := r.varint()
		return err
	case wireFixed64:
		n = 8
	case wireBytes:
		_, err := r.bytes()
		return err
	case wireFixed32:
		n = 4
	default:
		return fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	if n > len(r.b) {
		return errTruncated
	}
	r.b = r.b[n:]
	return nil
}

// uints reads a repeated integer field in either packed or unpacked form,
// appending to dst.
func (r *pbReader) uints(wire int, dst []uint64) ([]uint64, error) {
	if wire == wireVarint {
		v, err := r.varint()
		return append(dst, v), err
	}
	if wire != wireBytes {
		return dst, fmt.Errorf("profile: repeated integer with wire type %d", wire)
	}
	b, err := r.bytes()
	if err != nil {
		return dst, err
	}
	packed := pbReader{b}
	for len(packed.b) > 0 {
		v, err := packed.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// fields calls fn for every field of msg; fn must consume the field's
// payload from r (or return errSkip to have it skipped).
func fields(msg []byte, fn func(r *pbReader, field, wire int) error) error {
	r := &pbReader{msg}
	for {
		field, wire, ok, err := r.next()
		if err != nil || !ok {
			return err
		}
		if err := fn(r, field, wire); err != nil {
			if err != errSkip {
				return err
			}
			if err := r.skip(wire); err != nil {
				return err
			}
		}
	}
}

var errSkip = errors.New("skip")

// parseCPUProfile decodes a gzipped CPU profile into its samples.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawFunc struct{ name, file uint64 }
	type rawSample struct{ locs, values []uint64 }
	var (
		strs       []string
		unitIdx    []uint64 // sample_type[i].unit
		period     uint64
		funcs      = map[uint64]rawFunc{}
		locs       = map[uint64][]uint64{} // location → function ids, innermost first
		rawSamples []rawSample
	)
	err = fields(data, func(r *pbReader, field, wire int) error {
		if wire != wireBytes {
			if field == profPeriod {
				v, err := r.varint()
				period = v
				return err
			}
			return errSkip
		}
		switch field {
		case profSampleType:
			b, err := r.bytes()
			if err != nil {
				return err
			}
			var unit uint64
			err = fields(b, func(r *pbReader, field, wire int) error {
				if field == valueTypeUnit && wire == wireVarint {
					v, err := r.varint()
					unit = v
					return err
				}
				return errSkip
			})
			unitIdx = append(unitIdx, unit)
			return err
		case profSample:
			b, err := r.bytes()
			if err != nil {
				return err
			}
			var s rawSample
			err = fields(b, func(r *pbReader, field, wire int) error {
				var err error
				switch field {
				case sampleLocationID:
					s.locs, err = r.uints(wire, s.locs)
				case sampleValue:
					s.values, err = r.uints(wire, s.values)
				default:
					return errSkip
				}
				return err
			})
			rawSamples = append(rawSamples, s)
			return err
		case profLocation:
			b, err := r.bytes()
			if err != nil {
				return err
			}
			var id uint64
			var fnIDs []uint64
			err = fields(b, func(r *pbReader, field, wire int) error {
				switch {
				case field == locationID && wire == wireVarint:
					v, err := r.varint()
					id = v
					return err
				case field == locationLine && wire == wireBytes:
					line, err := r.bytes()
					if err != nil {
						return err
					}
					return fields(line, func(r *pbReader, field, wire int) error {
						if field == lineFunctionID && wire == wireVarint {
							v, err := r.varint()
							fnIDs = append(fnIDs, v)
							return err
						}
						return errSkip
					})
				}
				return errSkip
			})
			locs[id] = fnIDs
			return err
		case profFunction:
			b, err := r.bytes()
			if err != nil {
				return err
			}
			var id uint64
			var f rawFunc
			err = fields(b, func(r *pbReader, field, wire int) error {
				if wire != wireVarint {
					return errSkip
				}
				v, err := r.varint()
				switch field {
				case functionID:
					id = v
				case functionName:
					f.name = v
				case functionFilename:
					f.file = v
				}
				return err
			})
			funcs[id] = f
			return err
		case profStringTable:
			b, err := r.bytes()
			strs = append(strs, string(b))
			return err
		}
		return errSkip
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// Prefer the value measured in nanoseconds; a count-only profile is
	// scaled by the sampling period.
	nanosIdx, scale := -1, int64(1)
	for i, u := range unitIdx {
		if str(u) == "nanoseconds" {
			nanosIdx = i
		}
	}
	if nanosIdx < 0 {
		nanosIdx, scale = 0, int64(period)
	}

	out := make([]cpuSample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if nanosIdx >= len(rs.values) {
			return nil, fmt.Errorf("profile: sample has %d values, want > %d", len(rs.values), nanosIdx)
		}
		s := cpuSample{nanos: int64(rs.values[nanosIdx]) * scale}
		for _, l := range rs.locs {
			for _, fid := range locs[l] {
				f := funcs[fid]
				s.stack = append(s.stack, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, s)
	}
	return out, nil
}
