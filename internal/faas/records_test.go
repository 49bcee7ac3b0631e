package faas

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"gpufaas/internal/datastore"
	"gpufaas/internal/sim"
)

// recordNames are function names the datastore records must encode as
// encoding/json does: plain, control characters, invalid UTF-8, HTML
// escapes, quotes and backslashes, the JSONP separators, multi-byte runes.
var recordNames = []string{
	"classify", "f\x01", "bad\xff", "a<b&c", "q\"t", "x\u2028y", "é🙂",
	"b\\s", "tab\tnl\ncr\r", "\b\f", "del\x7f", "\ufffd", "cut\xe2\x80", "y\u2029",
}

// TestAppendJSONStringMatchesEncodingJSON checks the hand encoder against
// json.Marshal on the named cases and on every single-byte string.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	cases := append([]string(nil), recordNames...)
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{'a', byte(b), 'z'}))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestRecordsMatchEncodingJSON: both datastore records are the bytes the
// map form marshals to, and valid JSON, whatever the function is called.
func TestRecordsMatchEncodingJSON(t *testing.T) {
	for _, name := range recordNames {
		store := datastore.New()
		w := NewWatchdog(FunctionSpec{Name: name, Handler: HandlerEcho}, nil, store, sim.SimClock{E: sim.New()})
		w.record("ok", 0, 1500*time.Millisecond)
		recs := store.List("metrics/invocations/" + name + "/")
		if len(recs) != 1 {
			t.Fatalf("%q: %d invocation records", name, len(recs))
		}
		want, _ := json.Marshal(map[string]any{
			"function":  name,
			"latencyMs": int64(1500),
			"status":    "ok",
			"wallMs":    int64(0),
		})
		if got := recs[0].Value; !bytes.Equal(got, want) || !json.Valid(got) {
			t.Errorf("%q: invocation record %s, want %s", name, got, want)
		}

		res := Result{
			ReqID: 42, Function: name, Model: name + "-m", GPU: "node0/" + name, Hit: true,
			Arrival: 0, FinishedAt: sim.Time(3 * time.Second),
			LoadTime: 1200 * time.Millisecond, InferTime: 800 * time.Millisecond,
		}
		DatastoreSink{Store: store}.Completion(res)
		kv, err := store.Get("latency/" + name + "/42")
		if err != nil {
			t.Fatal(err)
		}
		want, _ = json.Marshal(map[string]any{
			"function":  res.Function,
			"model":     res.Model,
			"gpu":       res.GPU,
			"hit":       res.Hit,
			"latencyMs": res.Latency().Milliseconds(),
			"loadMs":    res.LoadTime.Milliseconds(),
			"inferMs":   res.InferTime.Milliseconds(),
		})
		if !bytes.Equal(kv.Value, want) || !json.Valid(kv.Value) {
			t.Errorf("%q: completion record %s, want %s", name, kv.Value, want)
		}
	}
}

// TestDatastoreSinkAllocs pins the GPU-side records at what a record
// costs: a warm status transition overwrites its key in place (0), a
// completion is a new key — its copy, the value copy and the entry (3).
func TestDatastoreSinkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	sink := DatastoreSink{Store: datastore.New(), Prefix: "cell12/"}
	for _, id := range []string{"node0/gpu0", "A100-80GB-SXM4/gpu127"} {
		sink.GPUStatus(id, true, 0)
		busy := false
		if avg := testing.AllocsPerRun(1000, func() {
			sink.GPUStatus(id, busy, 0)
			busy = !busy
		}); avg != 0 {
			t.Errorf("warm GPUStatus(%s) allocs/op = %.2f, want 0", id, avg)
		}
	}
	res := Result{Function: "classify", Model: "resnet18", GPU: "node0/gpu0", FinishedAt: sim.Time(time.Millisecond)}
	sink.Completion(res) // warm the record buffer pool
	if avg := testing.AllocsPerRun(1000, func() {
		res.ReqID++
		sink.Completion(res)
	}); avg > 3 {
		t.Errorf("Completion allocs/op = %.2f, want <= 3 (key, value, entry)", avg)
	}
}

// TestGatewayInferenceInvokeAllocs pins the steady-state cost of a warm
// GPU inference invoke through the gateway, with its datastore sink and
// admission control on: two status overwrites (free), the completion and
// invocation records (three objects each), the predictions slice and the
// JSON reply (the boxed response and the bytes). It measured 38.65
// allocs/op when the completion record was a json.Marshal of a map and
// each status transition built a new key, 10.02 with the records
// hand-encoded and status overwrites in place, and 9.02 once the default
// batch was read from the shared pool instead of copied; the bound is
// that plus 20 %.
func TestGatewayInferenceInvokeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	g, err := NewGateway(GatewayConfig{
		Nodes: 1, GPUsPerNode: 8, TimeScale: 1e-6, InvokeTimeout: time.Minute,
		Admission: &AdmissionConfig{MaxConcurrent: 4, QueueDepth: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Deploy(FunctionSpec{Name: "classify", GPUEnabled: true, Model: "resnet18", BatchSize: 1}); err != nil {
		t.Fatal(err)
	}
	invoke := func() {
		if resp, err := g.Invoke("classify", InvokeRequest{}); err != nil || len(resp.Predictions) != 1 {
			t.Fatalf("invoke: %+v, %v", resp, err)
		}
	}
	// One P for the warm-up too, so the pools AllocsPerRun measures are
	// the ones the warm-up filled: model load, network workspace, input
	// tensor, record buffer, timers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 32; i++ {
		invoke()
	}
	const maxAllocs = 10.8
	if avg := testing.AllocsPerRun(100, invoke); avg > maxAllocs {
		t.Errorf("warm inference invoke allocs/op = %.2f, want <= %.1f", avg, maxAllocs)
	}
}
