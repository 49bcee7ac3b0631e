package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer.
type span struct {
	name, layer string
	track       int   // one viewer track per cell, client or caller
	id          int64 // run or request index
	parent      int   // index of the enclosing span, -1 at the top
	start, end  time.Duration
}

// maxSpans bounds a workload's trace; spans past it are dropped.
const maxSpans = 10000

// tracer keeps spans in memory until the workload ends. A nil tracer
// records nothing, so untraced runs share the traced code path.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span and returns its index (-1 when not recorded).
func (t *tracer) open(name, layer string, track int, id int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, span{name: name, layer: layer, track: track, id: id, parent: parent, start: now})
	return len(t.spans) - 1
}

// close ends the span open returned.
func (t *tracer) close(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// writeFile writes the spans as Chrome trace-event JSON, the format
// obs.WriteTrace emits and Perfetto loads: one process for the workload,
// one thread per track, one complete ("X") slice per span.
func (t *tracer) writeFile(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.write(f, workload); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func (t *tracer) write(w io.Writer, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"traceEvents\":[\n"+`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":%q}}`, workload)
	tracks := map[int]bool{}
	for _, s := range t.spans {
		if !tracks[s.track] {
			tracks[s.track] = true
			fmt.Fprintf(bw, ",\n"+`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"track%d"}}`, s.track, s.track)
		}
	}
	for i, s := range t.spans {
		if s.end < s.start {
			continue // never closed: the call failed
		}
		fmt.Fprintf(bw, ",\n"+`{"name":%q,"cat":%q,"ph":"X","ts":%s,"dur":%s,"pid":1,"tid":%d,"args":{"span":%d,"parent":%d,"id":%d}}`,
			s.name, s.layer, usec(s.start), usec(s.end-s.start), s.track, i, s.parent, s.id)
	}
	fmt.Fprint(bw, "\n],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}

// usec renders a duration as trace-event microseconds with nanosecond
// precision.
func usec(d time.Duration) string {
	return fmt.Sprintf("%d.%03d", int64(d)/1000, int64(d)%1000)
}
