package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A reader for the gzip-compressed profile.proto that runtime/pprof
// writes, covering only what CPU attribution needs: sample -> location ->
// line -> function -> string table. Field numbers are those of
// github.com/google/pprof/proto/profile.proto.

// pbuf is a protobuf message being consumed from the front.
type pbuf []byte

var errTruncated = errors.New("pprof: truncated message")

func (b *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(*b) == 0 {
			return 0, errTruncated
		}
		c := (*b)[0]
		*b = (*b)[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next consumes one field: its number, and either the scalar value
// (varint and fixed wire types) or the payload (length-delimited).
func (b *pbuf) next() (num int, val uint64, data pbuf, err error) {
	key, err := b.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch wire := key & 7; wire {
	case 0:
		val, err = b.varint()
	case 1, 5:
		n := 8
		if wire == 5 {
			n = 4
		}
		if len(*b) < n {
			return 0, 0, nil, errTruncated
		}
		for i := n - 1; i >= 0; i-- {
			val = val<<8 | uint64((*b)[i])
		}
		*b = (*b)[n:]
	case 2:
		var n uint64
		if n, err = b.varint(); err != nil {
			return 0, 0, nil, err
		}
		if uint64(len(*b)) < n {
			return 0, 0, nil, errTruncated
		}
		data, *b = (*b)[:n], (*b)[n:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	return num, val, data, err
}

// uints appends a repeated integer field's values, packed or not.
func uints(dst []uint64, val uint64, data pbuf) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	for len(data) > 0 {
		v, err := data.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// cpuSample is one profile sample: its call stack as function names, leaf
// first (inlined frames expanded), and its weight in the profile's last
// value type (CPU nanoseconds in a Go CPU profile).
type cpuSample struct {
	stack []string
	value int64
}

// readProfile decodes a gzip-compressed profile.proto into samples.
func readProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]uint64{}   // function id -> string-table index
		strs      []string
	)
	for b := pbuf(raw); len(b) > 0; {
		num, _, data, err := b.next()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s rawSample
			for len(data) > 0 {
				n, v, d, err := data.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, v, d)
				case 2:
					s.vals, err = uints(s.vals, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			for len(data) > 0 {
				n, v, d, err := data.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					for len(d) > 0 {
						ln, lv, _, err := d.next()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case 5: // Function
			var id, name uint64
			for len(data) > 0 {
				n, v, _, err := data.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		cs := cpuSample{value: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[idx])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

const internalPrefix = "gpufaas/internal/"

// stackLayer names the *.cpu_share row a stack's time belongs to: the first
// frame from the leaf inside a layer package, so allocation and map work
// lands on the layer that asked for it. Stacks outside every layer are the
// garbage collector's, net/http's, or nobody's ("").
func stackLayer(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				if row, ok := cpuShareLayers[rest[:i]]; ok {
					return row
				}
			}
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.gcAssistAlloc"):
			return "go.gc_cpu_share"
		case strings.HasPrefix(fn, "net/http."):
			return "net.http_cpu_share"
		}
	}
	return ""
}

// cpuShares attributes a CPU profile to the *.cpu_share rows, each as a
// share of all CPU time sampled.
func cpuShares(profile []byte) (metrics, error) {
	samples, err := readProfile(profile)
	if err != nil {
		return nil, err
	}
	var total int64
	byRow := map[string]int64{}
	for _, s := range samples {
		total += s.value
		if row := stackLayer(s.stack); row != "" {
			byRow[row] += s.value
		}
	}
	out := metrics{}
	if total > 0 {
		for row, v := range byRow {
			out[row] = float64(v) / float64(total)
		}
	}
	return out, nil
}
