//go:build race

package nn

// raceEnabled reports whether the race detector is compiled in. The
// allocation-bound tests skip under it: sync.Pool deliberately drops a
// quarter of what is put back when racing, so pooled buffers get rebuilt
// and the counts say nothing about the steady state.
const raceEnabled = true
