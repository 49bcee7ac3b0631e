package trace

import (
	"fmt"
	"math/rand"
	"time"
)

// ArrivalStream is the iterator form of BuildRequests: it yields the
// exact same request sequence (same mapping validation, same per-minute
// shuffle, same arrival offsets, same IDs) in chunks, materializing at
// most one trace minute at a time. An hour-long trace at production
// request rates no longer needs its full arrival stream resident before
// the simulation clock starts — the harness pulls batches on demand.
//
// Arrival times are strictly increasing across the whole stream (offsets
// within a minute are distinct by construction and minutes do not
// overlap), so chunk boundaries never split a timestamp tie and the
// yielded sequence is independent of the chunk size.
type ArrivalStream struct {
	t       *Trace
	mapping ModelMapping
	batch   int
	rng     *rand.Rand
	chunk   int

	minute int
	id     int64
	total  int64
	buf    []Request // current minute's requests
	bufPos int
}

// Stream returns an ArrivalStream over the trace. chunk caps the number
// of requests per yielded batch; chunk <= 0 yields one trace minute per
// batch. Batches never span a minute boundary. The mapping must cover
// every trace function (the same validation BuildRequests performs,
// hoisted to construction time).
func (t *Trace) Stream(mapping ModelMapping, batch int, rng *rand.Rand, chunk int) (*ArrivalStream, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("trace: non-positive batch size %d", batch)
	}
	for _, fn := range t.Functions {
		if _, ok := mapping[fn]; !ok {
			return nil, fmt.Errorf("trace: no model mapping for function %q", fn)
		}
	}
	return &ArrivalStream{
		t:       t,
		mapping: mapping,
		batch:   batch,
		rng:     rng,
		chunk:   chunk,
		total:   t.TotalInvocations(),
	}, nil
}

// Total returns the total number of requests the stream will yield.
func (s *ArrivalStream) Total() int64 { return s.total }

// Next returns the next batch of requests in arrival order, or false
// when the stream is exhausted. The returned slice is reused by the next
// call; consumers must copy what they retain.
func (s *ArrivalStream) Next() ([]Request, bool) {
	for s.bufPos >= len(s.buf) {
		if s.minute >= s.t.Minutes {
			return nil, false
		}
		s.buf, s.bufPos = s.appendMinute(s.buf[:0]), 0
	}
	n := len(s.buf) - s.bufPos
	if s.chunk > 0 && n > s.chunk {
		n = s.chunk
	}
	b := s.buf[s.bufPos : s.bufPos+n : s.bufPos+n]
	s.bufPos += n
	return b, true
}

// appendMinute appends the next minute's requests to dst — the one
// per-minute expansion the stream's buffer and BuildRequests' result slice
// share: invocations of the minute's functions shuffled uniformly and
// spread evenly across the minute. The requests are shuffled where they
// land, with the same swaps a shuffle of their function names would make.
func (s *ArrivalStream) appendMinute(dst []Request) []Request {
	t, m := s.t, s.minute
	s.minute++
	start := len(dst)
	for i, row := range t.Counts {
		fn := t.Functions[i]
		r := Request{Function: fn, Model: s.mapping[fn], BatchSize: s.batch}
		for k := 0; k < row[m]; k++ {
			dst = append(dst, r)
		}
	}
	reqs := dst[start:]
	s.rng.Shuffle(len(reqs), func(a, b int) { reqs[a], reqs[b] = reqs[b], reqs[a] })
	n := len(reqs)
	for k := range reqs {
		offset := time.Duration(float64(time.Minute) * float64(k) / float64(max(n, 1)))
		reqs[k].ID = s.id
		reqs[k].Arrival = time.Duration(m)*time.Minute + offset
		s.id++
	}
	return dst
}
