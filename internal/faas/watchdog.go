package faas

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
	"unsafe"

	"gpufaas/internal/cluster"
	"gpufaas/internal/core"
	"gpufaas/internal/dataset"
	"gpufaas/internal/datastore"
	"gpufaas/internal/gpumgr"
	"gpufaas/internal/multicell"
	"gpufaas/internal/nn"
	"gpufaas/internal/sim"
	"gpufaas/internal/tensor"
	"gpufaas/internal/trace"
)

// Result re-exports the GPU Manager's completion record.
type Result = gpumgr.Result

// InvokeRequest is the payload a function receives.
type InvokeRequest struct {
	// Body is the raw request body (echo handler returns it).
	Body []byte
	// Images is the inference input batch; when empty, the handler
	// draws BatchSize images from the shared evaluation pool.
	Images []dataset.Image
	// Tenant overrides the function spec's tenant for admission-control
	// token buckets (the HTTP layer fills it from the X-Tenant header).
	Tenant string
}

// InvokeResponse is a function's result.
type InvokeResponse struct {
	// Body is the raw response (echo) or JSON-encoded predictions
	// (inference). It is the wire reply itself, never a field of it.
	Body []byte `json:"-"`
	// Predictions are the per-input class indices (inference only).
	Predictions []int `json:"predictions,omitempty"`
	// GPU, Hit and timings describe the GPU execution (inference only).
	GPU          string        `json:"gpu,omitempty"`
	Hit          bool          `json:"hit"`
	QueueWait    time.Duration `json:"queueWait"`
	LoadTime     time.Duration `json:"loadTime"`
	InferTime    time.Duration `json:"inferTime"`
	TotalLatency time.Duration `json:"totalLatency"`
}

// Watchdog starts and monitors the function inside its container (Fig. 1):
// it receives invocations from the Gateway, executes the handler, and
// records execution metrics to the Datastore. Metric timestamps come from
// the injected clock, so under a simulated clock the recorded metrics are
// deterministic; seq disambiguates invocations sharing a clock instant.
type Watchdog struct {
	spec    FunctionSpec
	infer   *InferenceClient
	store   *datastore.Store
	clock   sim.Clock
	seq     atomic.Int64
	netOnce sync.Once
	net     *nn.Network
	netErr  error
	inputs  sync.Pool // *tensor.Tensor network inputs, resident between invocations
}

// NewWatchdog builds a watchdog for a function. infer may be nil for
// non-GPU functions; store may be nil to disable metric recording. clock
// stamps the recorded metrics (the gateway passes its cluster clock); nil
// falls back to a fresh wall clock.
func NewWatchdog(spec FunctionSpec, infer *InferenceClient, store *datastore.Store, clock sim.Clock) *Watchdog {
	if clock == nil {
		clock = sim.NewRealClock()
	}
	return &Watchdog{spec: spec, infer: infer, store: store, clock: clock}
}

// Handle executes one invocation.
func (w *Watchdog) Handle(req InvokeRequest) (InvokeResponse, error) {
	start := w.clock.Now()
	var resp InvokeResponse
	var err error
	switch w.spec.Handler {
	case HandlerEcho:
		resp = InvokeResponse{Body: req.Body}
	case HandlerInference:
		resp, err = w.handleInference(req)
	default:
		err = fmt.Errorf("faas: watchdog has no handler %q", w.spec.Handler)
	}
	if w.store != nil {
		status := "ok"
		if err != nil {
			status = "error"
		}
		w.record(status, start, resp.TotalLatency)
	}
	return resp, err
}

// recBufPool recycles the scratch buffer a datastore record is encoded
// into: key and value are appended back to back, and datastore.Put copies
// what it keeps, so the buffer is reusable the moment the record is written.
var recBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// bytesKey views a scratch buffer as a datastore key for one Put. Put
// copies a key the first time it inserts it and retains neither argument,
// so the view never outlives the call and the buffer may be reused after.
func bytesKey(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// record writes the invocation metric record. The JSON is appended by
// hand, with the bytes and alphabetical key order encoding/json produces
// for the map form, so a record costs what a new datastore key costs —
// the key copy, the value copy and the entry, three objects — instead of
// a map, a Marshal and the reflect walk behind it. It runs on the
// invoking goroutine, outside the cluster lock; the GPU-side records of
// the same invoke (DatastoreSink) are written under it.
func (w *Watchdog) record(status string, start sim.Time, latency time.Duration) {
	bp := recBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = append(buf, "metrics/invocations/"...)
	buf = append(buf, w.spec.Name...)
	buf = append(buf, '/')
	buf = strconv.AppendInt(buf, int64(start), 10)
	buf = append(buf, '-')
	buf = strconv.AppendInt(buf, w.seq.Add(1), 10)
	n := len(buf)

	buf = append(buf, `{"function":`...)
	buf = appendJSONString(buf, w.spec.Name)
	buf = append(buf, `,"latencyMs":`...)
	buf = strconv.AppendInt(buf, latency.Milliseconds(), 10)
	buf = append(buf, `,"status":"`...)
	buf = append(buf, status...)
	buf = append(buf, `","wallMs":`...)
	buf = strconv.AppendInt(buf, time.Duration(w.clock.Now()-start).Milliseconds(), 10)
	buf = append(buf, '}')
	w.store.Put(bytesKey(buf[:n]), buf[n:], 0)
	*bp = buf[:0]
	recBufPool.Put(bp)
}

// appendJSONString appends s as a JSON string, byte for byte what
// encoding/json writes: '"' and '\\' backslash-escaped, control
// characters as \n-style or \u00XX escapes, the HTML-significant '<',
// '>' and '&' as \u00XX, invalid UTF-8 as \ufffd, and U+2028/U+2029
// escaped. Runs of other characters — all of a typical function name —
// are copied as they are.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				dst = append(dst, s[start:i]...)
				dst = append(dst, `\ufffd`...)
				start = i + size
			case r == '\u2028' || r == '\u2029':
				dst = append(dst, s[start:i]...)
				dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
				start = i + size
			}
			i += size
			continue
		}
		if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch b {
		case '"', '\\':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
		}
		i++
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// handleInference is the ML-inference function body. With the GPU flag
// set, the model load + predict calls go through the InferenceClient —
// the §III-A interface replacement — which schedules them onto the GPU
// cluster; the actual class predictions are computed by the scaled CNN on
// the CPU (the simulated GPU provides timing, not arithmetic).
func (w *Watchdog) handleInference(req InvokeRequest) (InvokeResponse, error) {
	if w.spec.GPUEnabled {
		if w.infer == nil {
			return InvokeResponse{}, errors.New("faas: GPU function without inference client")
		}
	}
	imgs := req.Images
	if len(imgs) == 0 {
		pool, err := sharedEvalPool()
		if err != nil {
			return InvokeResponse{}, err
		}
		// The handler only reads its batch, so a prefix of the shared
		// pool serves as it is; dataset.Batch copies only to wrap around.
		if n := w.spec.BatchSize; n > 0 && n <= len(pool) {
			imgs = pool[:n:n]
		} else if imgs, err = dataset.Batch(pool, 0, n); err != nil {
			return InvokeResponse{}, err
		}
	}
	x := w.input(len(imgs))
	defer w.inputs.Put(x)
	if err := dataset.FillTensor(x.Data, imgs, nn.InputSize); err != nil {
		return InvokeResponse{}, err
	}

	var gpuRes gpumgr.Result
	if w.spec.GPUEnabled {
		var err error
		if gpuRes, err = w.infer.Predict(w.spec, len(imgs)); err != nil {
			return InvokeResponse{}, err
		}
	}
	preds, err := w.predictCPU(x)
	if err != nil {
		return InvokeResponse{}, err
	}
	resp := InvokeResponse{
		Predictions: preds,
		GPU:         gpuRes.GPU,
		Hit:         gpuRes.Hit,
		LoadTime:    gpuRes.LoadTime,
		InferTime:   gpuRes.InferTime,
	}
	if w.spec.GPUEnabled {
		resp.TotalLatency = gpuRes.Latency()
		resp.QueueWait = resp.TotalLatency - gpuRes.LoadTime - gpuRes.InferTime
	}
	resp.Body, err = json.Marshal(resp)
	return resp, err
}

// input returns a network input tensor for a batch of n, reusing a pooled
// one when the batch size matches (a function's batch size rarely changes).
func (w *Watchdog) input(n int) *tensor.Tensor {
	if x, _ := w.inputs.Get().(*tensor.Tensor); x != nil && x.Shape[0] == n {
		return x
	}
	return tensor.MustNew(n, 3, nn.InputSize, nn.InputSize)
}

// predictCPU lazily builds the scaled network and runs the forward pass.
func (w *Watchdog) predictCPU(x *tensor.Tensor) ([]int, error) {
	w.netOnce.Do(func() {
		w.net, w.netErr = nn.Build(w.spec.Model, seedFor(w.spec.Model))
	})
	if w.netErr != nil {
		return nil, w.netErr
	}
	return w.net.Predict(x)
}

var (
	evalPoolOnce sync.Once
	evalPool     []dataset.Image
	evalPoolErr  error
)

// sharedEvalPool lazily builds the paper's 150-image pool once per
// process; invocations without an explicit input batch draw from it.
func sharedEvalPool() ([]dataset.Image, error) {
	evalPoolOnce.Do(func() {
		evalPool, evalPoolErr = dataset.EvalPool(1)
	})
	return evalPool, evalPoolErr
}

func seedFor(model string) int64 {
	var h int64 = 1469598103934665603
	for _, b := range []byte(model) {
		h ^= int64(b)
		h *= 1099511628211
	}
	return h
}

// InferenceClient is the customized interface that replaces
// torch.load()/model(input) in GPU-enabled functions (§III-A): it forwards
// load+predict to the GPU Manager via the Scheduler and blocks until the
// inference completes. On a multi-cell gateway one client fronts every
// cell: the front-door router picks the cell per Predict, and the single
// request-ID counter keeps waiter routing and datastore latency keys
// unique across the fleet.
//
// The live request path is pooled end to end: core.Request objects come
// from a RequestArena (acquired at Predict, released when the
// completion or drop routes back — the GPU manager copies every request
// field into the Result at dispatch, so nothing references the object
// after that), and the per-call outcome channels and timeout timers
// recycle through sync.Pools. In steady state neither the client nor the
// launch path under it — Cluster.Submit's scheduling round, the GPU
// manager's launch into the GPU's resident slot, its re-armed completion
// timer — allocates: the benchmark counts 0 objects per warm Predict on a
// cluster without a status sink (faas.predict_allocs and
// cluster.submit_allocs on live-predict, from 8 and 9), and
// TestPredictAllocs bounds it at 2. A gateway's cluster carries a
// DatastoreSink, whose completion record adds 3 objects per Predict.
type InferenceClient struct {
	cells   []*cluster.Cluster
	router  *multicell.Router // nil: everything goes to cells[0]
	clock   sim.Clock
	timeout time.Duration

	mu       sync.Mutex
	nextID   int64
	routed   []int64
	waiters  map[int64]chan predictOutcome
	inflight map[int64]*core.Request // submitted, not yet completed/dropped
	arena    core.RequestArena       // guarded by mu: the client is the live path's serialization point
	chPool   sync.Pool
}

// predictOutcome is what Route/Drop deliver to a waiting Predict.
type predictOutcome struct {
	res gpumgr.Result
	err error
}

// NewInferenceClient wires a client to a live-mode cluster. The caller
// must register Route as the cluster's OnResult hook (WithResultHook /
// Config.OnResult). timeout bounds each Predict.
func NewInferenceClient(c *cluster.Cluster, clock sim.Clock, timeout time.Duration) *InferenceClient {
	return NewCellInferenceClient([]*cluster.Cluster{c}, nil, clock, timeout)
}

// NewCellInferenceClient wires a client across a sharded fleet. router
// may be nil when there is a single cell; otherwise it picks the cell
// per request (the client serializes access to it). Route must be
// registered as EVERY cell's OnResult hook.
func NewCellInferenceClient(cells []*cluster.Cluster, router *multicell.Router, clock sim.Clock, timeout time.Duration) *InferenceClient {
	return &InferenceClient{
		cells:    cells,
		router:   router,
		clock:    clock,
		timeout:  timeout,
		routed:   make([]int64, len(cells)),
		waiters:  make(map[int64]chan predictOutcome),
		inflight: make(map[int64]*core.Request),
		chPool:   sync.Pool{New: func() any { return make(chan predictOutcome, 1) }},
	}
}

// ArenaStats snapshots the live request arena's counters.
func (ic *InferenceClient) ArenaStats() core.ArenaStats {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	return ic.arena.Stats()
}

// releaseLocked recycles an in-flight request. Callers hold ic.mu and
// must know the scheduler is done with the object (its completion or
// drop has been reported).
func (ic *InferenceClient) releaseLocked(id int64) {
	if req, ok := ic.inflight[id]; ok {
		delete(ic.inflight, id)
		ic.arena.Put(req)
	}
}

// RouterPolicy names the front-door policy ("" for a single cell).
func (ic *InferenceClient) RouterPolicy() string {
	if ic.router == nil {
		return ""
	}
	return ic.router.Config().Policy.String()
}

// routerPolicyValue is RouterPolicy as a multicell.Policy (hash when no
// router is attached).
func (ic *InferenceClient) routerPolicyValue() multicell.Policy {
	if ic.router == nil {
		return multicell.RouteHash
	}
	return ic.router.Config().Policy
}

// RoutedByCell reports how many Predicts each cell has received.
func (ic *InferenceClient) RoutedByCell() []int64 {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	return append([]int64(nil), ic.routed...)
}

// Route delivers completion results to waiting Predict calls and
// recycles the completed request into the arena; it is the cluster's
// OnResult hook.
func (ic *InferenceClient) Route(res gpumgr.Result) {
	ic.mu.Lock()
	ch, ok := ic.waiters[res.ReqID]
	if ok {
		delete(ic.waiters, res.ReqID)
	}
	ic.releaseLocked(res.ReqID)
	ic.mu.Unlock()
	if ok {
		ch <- predictOutcome{res: res}
	}
}

// Drop fails a waiting Predict whose dispatch was rejected (per-tenant
// GPU quota, impossible model) and recycles the request; it is the
// cluster's OnDrop hook. Without it the waiter would hold its arena
// slot until the invoke timeout.
func (ic *InferenceClient) Drop(id int64, cause error) {
	ic.mu.Lock()
	ch, ok := ic.waiters[id]
	if ok {
		delete(ic.waiters, id)
	}
	ic.releaseLocked(id)
	ic.mu.Unlock()
	if ok {
		ch <- predictOutcome{err: fmt.Errorf("faas: inference %d dropped: %w", id, cause)}
	}
}

// Predict schedules one inference of the function's model and waits for
// completion.
func (ic *InferenceClient) Predict(spec FunctionSpec, batch int) (gpumgr.Result, error) {
	arrival := ic.clock.Now()
	ic.mu.Lock()
	ic.nextID++
	id := ic.nextID
	ch := ic.chPool.Get().(chan predictOutcome)
	ic.waiters[id] = ch
	cell := 0
	if ic.router != nil {
		// The router is not safe for concurrent use; the client's lock
		// is its serialization point.
		cell = ic.router.Route(trace.Request{
			ID:        id,
			Function:  spec.Name,
			Model:     spec.Model,
			Arrival:   time.Duration(arrival),
			BatchSize: batch,
		})
	}
	ic.routed[cell]++
	req := ic.arena.Get()
	req.ID = id
	req.Function = spec.Name
	req.Model = spec.Model
	req.BatchSize = batch
	req.Arrival = arrival
	req.Tenant = spec.Tenant
	ic.inflight[id] = req
	ic.mu.Unlock()

	if err := ic.cells[cell].Submit(req); err != nil {
		// Enqueue failed: the request never reached the scheduler, so
		// no completion or drop can race the recycle here.
		ic.mu.Lock()
		delete(ic.waiters, id)
		ic.releaseLocked(id)
		ic.mu.Unlock()
		ic.chPool.Put(ch)
		return gpumgr.Result{}, err
	}
	t := getTimer(ic.timeout)
	select {
	case out := <-ch:
		stopTimer(t)
		ic.chPool.Put(ch)
		return out.res, out.err
	case <-t.C:
		putTimer(t) // fired and drained
		ic.mu.Lock()
		delete(ic.waiters, id)
		// The request stays in flight: the scheduler may still hold it,
		// so the eventual completion (or drop) does the recycle — and
		// may be sending into ch right now, which is why the channel is
		// not pooled either.
		ic.mu.Unlock()
		return gpumgr.Result{}, fmt.Errorf("faas: inference %d timed out after %v", id, ic.timeout)
	}
}

// DatastoreSink records GPU status transitions and completions into the
// Datastore, as the GPU Managers do in §III-C ("reports the latency to the
// Datastore... updates the status back to idle"). Both methods run inside
// the cluster lock, so every Submit on the cell waits behind them; they
// cost what the record costs. A warm status transition overwrites an
// existing key in place and allocates nothing; a completion is a new key
// and costs its key copy, its value copy and the datastore entry.
type DatastoreSink struct {
	Store *datastore.Store
	// Prefix namespaces the per-GPU status keys (a multi-cell gateway
	// uses "cellN/": every cell names its nodes node0..nodeN, so bare
	// GPU IDs collide fleet-wide). Completion latency keys need no
	// prefix — request IDs come from the shared inference client.
	Prefix string
}

// GPUStatus implements gpumgr.StatusSink.
func (s DatastoreSink) GPUStatus(gpuID string, busy bool, at sim.Time) {
	if s.Store == nil {
		return
	}
	v := "idle"
	if busy {
		v = "busy"
	}
	var kb [64]byte
	key := append(kb[:0], "gpu/"...)
	key = append(key, s.Prefix...)
	key = append(key, gpuID...)
	key = append(key, "/status"...)
	s.Store.Put(bytesKey(key), []byte(v), 0)
}

// GPURemoved implements gpumgr.GPURemovalSink: a decommissioned GPU's
// status key leaves the Datastore with it, so /system/gpus never lists
// phantom idle GPUs.
func (s DatastoreSink) GPURemoved(gpuID string, _ sim.Time) {
	if s.Store == nil {
		return
	}
	_, _ = s.Store.Delete("gpu/" + s.Prefix + gpuID + "/status")
}

// Completion implements gpumgr.StatusSink. The record is the bytes
// json.Marshal writes for the map of these seven keys, appended by hand
// in the same sorted key order.
func (s DatastoreSink) Completion(res gpumgr.Result) {
	if s.Store == nil {
		return
	}
	bp := recBufPool.Get().(*[]byte)
	buf := append((*bp)[:0], "latency/"...)
	buf = append(buf, res.Function...)
	buf = append(buf, '/')
	buf = strconv.AppendInt(buf, res.ReqID, 10)
	n := len(buf)

	buf = append(buf, `{"function":`...)
	buf = appendJSONString(buf, res.Function)
	buf = append(buf, `,"gpu":`...)
	buf = appendJSONString(buf, res.GPU)
	buf = append(buf, `,"hit":`...)
	buf = strconv.AppendBool(buf, res.Hit)
	buf = append(buf, `,"inferMs":`...)
	buf = strconv.AppendInt(buf, res.InferTime.Milliseconds(), 10)
	buf = append(buf, `,"latencyMs":`...)
	buf = strconv.AppendInt(buf, res.Latency().Milliseconds(), 10)
	buf = append(buf, `,"loadMs":`...)
	buf = strconv.AppendInt(buf, res.LoadTime.Milliseconds(), 10)
	buf = append(buf, `,"model":`...)
	buf = appendJSONString(buf, res.Model)
	buf = append(buf, '}')
	s.Store.Put(bytesKey(buf[:n]), buf[n:], 0)
	*bp = buf[:0]
	recBufPool.Put(bp)
}
