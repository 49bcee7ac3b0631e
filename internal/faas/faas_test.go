package faas

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gpufaas/internal/cluster"
	"gpufaas/internal/models"
)

func testGateway(t *testing.T) *Gateway {
	t.Helper()
	g, err := NewGateway(GatewayConfig{
		Policy:        "LALBO3",
		TimeScale:     0.001, // Table I seconds -> milliseconds
		InvokeTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSpecValidate(t *testing.T) {
	bad := []FunctionSpec{
		{},
		{Name: "has space"},
		{Name: "x", Handler: "bogus"},
		{Name: "x", Handler: HandlerInference},
		{Name: "x", Model: "m", Handler: HandlerInference, BatchSize: -1},
		{Name: "x", Replicas: -2},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should fail: %+v", i, s)
		}
	}
	good := FunctionSpec{Name: "classify", GPUEnabled: true, Model: "resnet18"}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Handler != HandlerInference || good.BatchSize != 32 || good.Replicas != 1 {
		t.Errorf("defaults not applied: %+v", good)
	}
	plain := FunctionSpec{Name: "echoer"}
	if err := plain.Validate(); err != nil || plain.Handler != HandlerEcho {
		t.Errorf("non-GPU default handler: %+v (%v)", plain, err)
	}
}

func TestRegistryCRUD(t *testing.T) {
	r := NewRegistry()
	spec := FunctionSpec{Name: "f1", GPUEnabled: true, Model: "resnet18", Replicas: 2}
	fn, err := r.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(fn.Containers) != 2 {
		t.Errorf("containers = %d", len(fn.Containers))
	}
	if _, err := r.Deploy(spec); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate deploy: %v", err)
	}
	got, err := r.Get("f1")
	if err != nil || got.Spec.Model != "resnet18" {
		t.Errorf("Get = %+v (%v)", got, err)
	}
	if _, err := r.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get missing: %v", err)
	}
	spec.Model = "vgg19"
	if _, err := r.Update(spec); err != nil {
		t.Fatal(err)
	}
	got, _ = r.Get("f1")
	if got.Spec.Model != "vgg19" {
		t.Error("update lost")
	}
	if _, err := r.Update(FunctionSpec{Name: "ghost", Model: "m", Handler: HandlerInference}); !errors.Is(err, ErrNotFound) {
		t.Errorf("update missing: %v", err)
	}
	fn2, err := r.Scale("f1", 5)
	if err != nil || len(fn2.Containers) != 5 {
		t.Errorf("Scale = %+v (%v)", fn2, err)
	}
	if _, err := r.Scale("f1", 0); err == nil {
		t.Error("zero replicas should fail")
	}
	if _, err := r.Scale("ghost", 2); !errors.Is(err, ErrNotFound) {
		t.Errorf("scale missing: %v", err)
	}
	if list := r.List(); len(list) != 1 || list[0].Spec.Name != "f1" {
		t.Errorf("List = %v", list)
	}
	if err := r.Remove("f1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("f1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double remove: %v", err)
	}
}

func TestGatewayDeployValidatesModel(t *testing.T) {
	g := testGateway(t)
	if _, err := g.Deploy(FunctionSpec{Name: "bad", GPUEnabled: true, Model: "no-such-model"}); err == nil {
		t.Fatal("unknown model should fail deploy")
	}
	if _, err := g.registry.Get("bad"); !errors.Is(err, ErrNotFound) {
		t.Error("failed deploy must roll back registration")
	}
}

func TestEndToEndInference(t *testing.T) {
	g := testGateway(t)
	if _, err := g.Deploy(FunctionSpec{Name: "classify", GPUEnabled: true, Model: "resnet18", BatchSize: 8}); err != nil {
		t.Fatal(err)
	}
	resp, err := g.Invoke("classify", InvokeRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Predictions) != 8 {
		t.Fatalf("predictions = %d", len(resp.Predictions))
	}
	if resp.GPU == "" {
		t.Error("missing GPU assignment")
	}
	if resp.Hit {
		t.Error("first invocation must be a cold start (miss)")
	}
	if resp.LoadTime <= 0 || resp.InferTime <= 0 {
		t.Errorf("timings = %+v", resp)
	}
	// Second invocation of the same model: warm (cache hit), no load.
	resp2, err := g.Invoke("classify", InvokeRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Hit || resp2.LoadTime != 0 {
		t.Errorf("second invocation should hit: %+v", resp2)
	}
	// Datastore has the latency records and GPU status.
	if recs := g.Store().List("latency/classify/"); len(recs) != 2 {
		t.Errorf("latency records = %d", len(recs))
	}
	if gpus := g.Store().List("gpu/"); len(gpus) == 0 {
		t.Error("no GPU status recorded")
	}
}

// The inference reply's wire form is exactly these keys. Body is the
// reply, not a member of it: untagged, it marshals into itself as
// "Body":null.
func TestInferenceReplyKeys(t *testing.T) {
	g := testGateway(t)
	if _, err := g.Deploy(FunctionSpec{Name: "classify", GPUEnabled: true, Model: "resnet18", BatchSize: 2}); err != nil {
		t.Fatal(err)
	}
	resp, err := g.Invoke("classify", InvokeRequest{})
	if err != nil {
		t.Fatal(err)
	}
	var reply map[string]json.RawMessage
	if err := json.Unmarshal(resp.Body, &reply); err != nil {
		t.Fatalf("reply %q: %v", resp.Body, err)
	}
	want := []string{"gpu", "hit", "inferTime", "loadTime", "predictions", "queueWait", "totalLatency"}
	if len(reply) != len(want) {
		t.Errorf("reply keys = %d, want %d: %s", len(reply), len(want), resp.Body)
	}
	for _, k := range want {
		if _, ok := reply[k]; !ok {
			t.Errorf("reply lacks %q: %s", k, resp.Body)
		}
	}
}

func TestEchoFunction(t *testing.T) {
	g := testGateway(t)
	if _, err := g.Deploy(FunctionSpec{Name: "echoer"}); err != nil {
		t.Fatal(err)
	}
	resp, err := g.Invoke("echoer", InvokeRequest{Body: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "hello" {
		t.Errorf("echo = %q", resp.Body)
	}
	if _, err := g.Invoke("ghost", InvokeRequest{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("invoke missing: %v", err)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	g := testGateway(t)
	for i, model := range []string{"resnet18", "vgg19", "alexnet"} {
		name := fmt.Sprintf("fn%d", i)
		if _, err := g.Deploy(FunctionSpec{Name: name, GPUEnabled: true, Model: model, BatchSize: 4}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 30)
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("fn%d", i%3)
			if _, err := g.Invoke(name, InvokeRequest{}); err != nil {
				errs <- fmt.Errorf("%s: %w", name, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := g.Cluster().Completed(); got != 30 {
		t.Errorf("completed = %d", got)
	}
}

func TestHTTPAPI(t *testing.T) {
	g := testGateway(t)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	// healthz
	res, err := http.Get(srv.URL + "/healthz")
	if err != nil || res.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", res.Status, err)
	}
	res.Body.Close()

	// deploy
	spec := FunctionSpec{Name: "classify", GPUEnabled: true, Model: "squeezenet1.1", BatchSize: 4}
	body, _ := json.Marshal(spec)
	res, err = http.Post(srv.URL+"/system/functions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("deploy status = %d", res.StatusCode)
	}
	res.Body.Close()

	// duplicate deploy -> 409
	res, _ = http.Post(srv.URL+"/system/functions", "application/json", bytes.NewReader(body))
	if res.StatusCode != http.StatusConflict {
		t.Fatalf("dup deploy status = %d", res.StatusCode)
	}
	res.Body.Close()

	// list
	res, err = http.Get(srv.URL + "/system/functions")
	if err != nil {
		t.Fatal(err)
	}
	var fns []Function
	if err := json.NewDecoder(res.Body).Decode(&fns); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if len(fns) != 1 || fns[0].Spec.Name != "classify" {
		t.Fatalf("list = %+v", fns)
	}

	// invoke
	res, err = http.Post(srv.URL+"/function/classify", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	var iv InvokeResponse
	if err := json.NewDecoder(res.Body).Decode(&iv); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 200 || len(iv.Predictions) != 4 {
		t.Fatalf("invoke = %d, %+v", res.StatusCode, iv)
	}

	// invoke missing -> 404
	res, _ = http.Post(srv.URL+"/function/ghost", "application/json", nil)
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("missing invoke = %d", res.StatusCode)
	}
	res.Body.Close()

	// scale
	res, err = http.Post(srv.URL+"/system/scale/classify", "application/json",
		bytes.NewReader([]byte(`{"replicas":3}`)))
	if err != nil || res.StatusCode != http.StatusAccepted {
		t.Fatalf("scale: %v %v", res.StatusCode, err)
	}
	res.Body.Close()

	// describe
	res, err = http.Get(srv.URL + "/system/functions/classify")
	if err != nil {
		t.Fatal(err)
	}
	var fn Function
	if err := json.NewDecoder(res.Body).Decode(&fn); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if len(fn.Containers) != 3 {
		t.Fatalf("containers after scale = %d", len(fn.Containers))
	}

	// metrics
	res, err = http.Get(srv.URL + "/system/metrics")
	if err != nil || res.StatusCode != 200 {
		t.Fatalf("metrics: %v %v", res, err)
	}
	var metrics map[string]any
	if err := json.NewDecoder(res.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()

	// gpus
	res, err = http.Get(srv.URL + "/system/gpus")
	if err != nil || res.StatusCode != 200 {
		t.Fatalf("gpus: %v %v", res, err)
	}
	res.Body.Close()

	// delete
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/system/functions/classify", nil)
	res, err = http.DefaultClient.Do(req)
	if err != nil || res.StatusCode != http.StatusAccepted {
		t.Fatalf("delete: %v %v", res.StatusCode, err)
	}
	res.Body.Close()
	res, _ = http.Get(srv.URL + "/system/functions/classify")
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete = %d", res.StatusCode)
	}
	res.Body.Close()
}

func TestScaledProfiles(t *testing.T) {
	g := testGateway(t)
	zoo := g.Cluster().Zoo()
	prof := ScaledProfiles(zoo, "rtx2080", 0.001)
	p, ok := prof.Get("rtx2080", "resnet18")
	if !ok {
		t.Fatal("missing profile")
	}
	if p.LoadTime < 2*time.Millisecond || p.LoadTime > 3*time.Millisecond {
		t.Errorf("scaled load = %v", p.LoadTime)
	}
	// scale 1 returns the table store unchanged
	p1, _ := ScaledProfiles(zoo, "rtx2080", 1).Get("rtx2080", "resnet18")
	if p1.LoadTime != 2520*time.Millisecond {
		t.Errorf("unit scale load = %v", p1.LoadTime)
	}
}

func TestFleetProfiles(t *testing.T) {
	zoo := models.Default()
	fleet := cluster.FleetSpec{{Type: "t4", Count: 1}, {Type: "rtx2080", Count: 1}}
	prof, err := FleetProfiles(zoo, fleet, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	fast, ok := prof.Get("rtx2080", "resnet18")
	if !ok {
		t.Fatal("missing rtx2080 profile")
	}
	slow, ok := prof.Get("t4", "resnet18")
	if !ok {
		t.Fatal("missing t4 profile")
	}
	if slow.LoadTime <= fast.LoadTime {
		t.Errorf("t4 load %v not slower than rtx2080 %v", slow.LoadTime, fast.LoadTime)
	}
	if fast.LoadTime < 2*time.Millisecond || fast.LoadTime > 3*time.Millisecond {
		t.Errorf("scaled load = %v", fast.LoadTime)
	}
	if _, err := FleetProfiles(zoo, cluster.FleetSpec{{Type: "nope", Count: 1}}, 1); err == nil {
		t.Error("unknown class should fail")
	}
}

func TestGatewayConfigErrors(t *testing.T) {
	if _, err := NewGateway(GatewayConfig{Policy: "bogus"}); err == nil {
		t.Error("bogus policy should fail")
	}
	if _, err := NewGateway(GatewayConfig{TimeScale: -1}); err == nil {
		t.Error("negative time scale should fail")
	}
}

func TestDatastoreSinkNilStore(t *testing.T) {
	var s DatastoreSink
	s.GPUStatus("g0", true, 0) // must not panic
	s.Completion(Result{})
}
