package trace

import (
	"math/rand"
	"testing"
	"time"
)

// buildRequestsOracle is a verbatim copy of the pre-stream BuildRequests
// implementation (materialize every minute into one slice). It is the
// oracle TestStreamMatchesBuildRequests compares against, so the
// iterator refactor cannot silently drift the workload construction.
func buildRequestsOracle(t *Trace, mapping ModelMapping, batch int, rng *rand.Rand) []Request {
	var reqs []Request
	var id int64
	for m := 0; m < t.Minutes; m++ {
		var minuteFns []string
		for i, row := range t.Counts {
			for k := 0; k < row[m]; k++ {
				minuteFns = append(minuteFns, t.Functions[i])
			}
		}
		rng.Shuffle(len(minuteFns), func(a, b int) {
			minuteFns[a], minuteFns[b] = minuteFns[b], minuteFns[a]
		})
		n := len(minuteFns)
		for k, fn := range minuteFns {
			offset := time.Duration(float64(time.Minute) * float64(k) / float64(max(n, 1)))
			reqs = append(reqs, Request{
				ID:        id,
				Function:  fn,
				Model:     mapping[fn],
				Arrival:   time.Duration(m)*time.Minute + offset,
				BatchSize: batch,
			})
			id++
		}
	}
	return reqs
}

// roundRobinMapping deals functions onto models in rank order, wrapping
// when there are more functions than models.
func roundRobinMapping(functions, models []string) ModelMapping {
	mm := make(ModelMapping, len(functions))
	for i, f := range functions {
		mm[f] = models[i%len(models)]
	}
	return mm
}

// streamWorkload is a working-set trace whose minutes range from full
// through sparse (most rows zero) to empty.
func streamWorkload(t *testing.T, seed int64) (*Trace, ModelMapping) {
	t.Helper()
	fns, err := WorkingSet(SynthConfig{
		Functions: 200, Minutes: 5, InvocationsPerMinute: 400,
		TopShare: 0.56, TopCount: 15, Seed: seed,
	}, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	w := Redistribute(fns, []int{120, 3, 120, 0, 57}, WorkloadZipfS)
	return w, roundRobinMapping(w.Functions, []string{"a", "b", "c"})
}

// TestStreamMatchesBuildRequests is the streaming≡materialized property
// test: for identical seeds the ArrivalStream must yield exactly the
// oracle's request sequence, at every chunk size (including chunks that
// split minutes and the whole-minute default), and BuildRequests (now a
// Stream consumer itself) must agree too.
func TestStreamMatchesBuildRequests(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		w, mapping := streamWorkload(t, seed)
		want := buildRequestsOracle(w, mapping, 32, rand.New(rand.NewSource(seed)))

		got, err := w.BuildRequests(mapping, 32, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: BuildRequests yielded %d requests, oracle %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: BuildRequests[%d] = %+v, oracle %+v", seed, i, got[i], want[i])
			}
		}

		for _, chunk := range []int{1, 7, 97, 1 << 20, 0} {
			s, err := w.Stream(mapping, 32, rand.New(rand.NewSource(seed)), chunk)
			if err != nil {
				t.Fatal(err)
			}
			if s.Total() != int64(len(want)) {
				t.Fatalf("seed %d chunk %d: Total = %d, want %d", seed, chunk, s.Total(), len(want))
			}
			i := 0
			for {
				b, ok := s.Next()
				if !ok {
					break
				}
				if len(b) == 0 {
					t.Fatalf("seed %d chunk %d: empty non-final batch at request %d", seed, chunk, i)
				}
				if chunk > 0 && len(b) > chunk {
					t.Fatalf("seed %d chunk %d: batch of %d exceeds chunk", seed, chunk, len(b))
				}
				for _, r := range b {
					if i >= len(want) {
						t.Fatalf("seed %d chunk %d: stream yielded more than %d requests", seed, chunk, len(want))
					}
					if r != want[i] {
						t.Fatalf("seed %d chunk %d: stream[%d] = %+v, oracle %+v", seed, chunk, i, r, want[i])
					}
					i++
				}
			}
			if i != len(want) {
				t.Fatalf("seed %d chunk %d: stream yielded %d requests, oracle %d", seed, chunk, i, len(want))
			}
		}
	}
}

// TestStreamArrivalsStrictlyIncrease pins the property the streaming
// harness relies on to keep chunking invisible: arrival timestamps are
// strictly increasing across the whole stream, so no batch boundary can
// split a timestamp tie.
func TestStreamArrivalsStrictlyIncrease(t *testing.T) {
	w, mapping := streamWorkload(t, 9)
	s, err := w.Stream(mapping, 32, rand.New(rand.NewSource(9)), 13)
	if err != nil {
		t.Fatal(err)
	}
	last := time.Duration(-1)
	for {
		b, ok := s.Next()
		if !ok {
			return
		}
		for _, r := range b {
			if r.Arrival <= last {
				t.Fatalf("arrival %v after %v (id %d)", r.Arrival, last, r.ID)
			}
			last = r.Arrival
		}
	}
}

// TestStreamValidation mirrors BuildRequests' error contract.
func TestStreamValidation(t *testing.T) {
	w, mapping := streamWorkload(t, 2)
	if _, err := w.Stream(mapping, 0, rand.New(rand.NewSource(1)), 0); err == nil {
		t.Error("non-positive batch accepted")
	}
	delete(mapping, w.Functions[3])
	if _, err := w.Stream(mapping, 32, rand.New(rand.NewSource(1)), 0); err == nil {
		t.Error("incomplete mapping accepted")
	}
	if _, err := w.BuildRequests(mapping, 32, rand.New(rand.NewSource(1))); err == nil {
		t.Error("BuildRequests accepted incomplete mapping")
	}
}
