package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"gpufaas/internal/dataset"
	"gpufaas/internal/models"
	"gpufaas/internal/tensor"
)

func randomBatch(t *testing.T, n int) *tensor.Tensor {
	t.Helper()
	return seededBatch(n, 99)
}

func TestBuildAllZooArchitectures(t *testing.T) {
	zoo := models.Default()
	x := randomBatch(t, 2)
	for _, m := range zoo.All() {
		net, err := Build(m.Name, 7)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		logits, err := net.Forward(x)
		if err != nil {
			t.Fatalf("%s forward: %v", m.Name, err)
		}
		if logits.Dims() != 2 || logits.Shape[0] != 2 || logits.Shape[1] != NumClasses {
			t.Fatalf("%s logits shape %v", m.Name, logits.Shape)
		}
		for _, v := range logits.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s produced NaN/Inf logits", m.Name)
			}
		}
		if net.Params() <= 0 {
			t.Errorf("%s has no parameters", m.Name)
		}
	}
}

func TestBuildInstanceSuffix(t *testing.T) {
	net, err := Build("resnet18@f07", 3)
	if err != nil {
		t.Fatal(err)
	}
	if net.Arch != "resnet18" {
		t.Errorf("Arch = %s", net.Arch)
	}
	if BaseArch("vgg19@f31") != "vgg19" || BaseArch("alexnet") != "alexnet" {
		t.Error("BaseArch wrong")
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := Build("gpt4", 1); err == nil {
		t.Error("unknown architecture should fail")
	}
}

func TestPredictDeterministic(t *testing.T) {
	x := randomBatch(t, 4)
	a, err := Build("resnet18", 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build("resnet18", 42)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := a.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed produced different predictions")
		}
		if pa[i] < 0 || pa[i] >= NumClasses {
			t.Fatalf("class out of range: %d", pa[i])
		}
	}
}

func TestDifferentSeedsDifferentWeights(t *testing.T) {
	a, _ := Build("alexnet", 1)
	b, _ := Build("alexnet", 2)
	x := randomBatch(t, 1)
	la, err := a.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := b.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range la.Data {
		if la.Data[i] != lb.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical logits")
	}
}

func TestForwardInputValidation(t *testing.T) {
	net, err := Build("resnet18", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Forward(tensor.MustNew(1, 1, 32, 32)); err == nil {
		t.Error("wrong channel count should fail")
	}
	if _, err := net.Forward(tensor.MustNew(1, 3, 16, 16)); err == nil {
		t.Error("wrong spatial size should fail")
	}
}

func TestVariantDepthOrdering(t *testing.T) {
	// Bigger variants must have at least as many parameters.
	pairs := [][2]string{
		{"resnet18", "resnet152"},
		{"vgg11", "vgg19"},
		{"densenet121", "densenet201"},
		{"resnext50.32x4d", "resnext101.32x8d"},
	}
	for _, p := range pairs {
		small, err := Build(p[0], 1)
		if err != nil {
			t.Fatal(err)
		}
		big, err := Build(p[1], 1)
		if err != nil {
			t.Fatal(err)
		}
		if big.Params() <= small.Params() {
			t.Errorf("%s params %d <= %s params %d", p[1], big.Params(), p[0], small.Params())
		}
	}
}

// ---- reference path ----
//
// The forward pass written the obvious way: every layer returns a fresh
// whole-batch tensor, convolution is the per-pixel bounds-tested loop,
// concatenation copies and the residual add clones. The workspace path
// must reproduce its logits bit for bit.

// refConv2D touches only its own arguments on one goroutine; norace keeps
// the oracle from dominating the -race run.
//
//go:norace
func refConv2D(x, w, bias *tensor.Tensor, stride, pad int) *tensor.Tensor {
	n, cin, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cout, kh, kw := w.Shape[0], w.Shape[2], w.Shape[3]
	ho := (h+2*pad-kh)/stride + 1
	wo := (wd+2*pad-kw)/stride + 1
	out := tensor.MustNew(n, cout, ho, wo)
	for b := 0; b < n; b++ {
		for oc := 0; oc < cout; oc++ {
			for oy := 0; oy < ho; oy++ {
				for ox := 0; ox < wo; ox++ {
					sum := bias.Data[oc]
					for ic := 0; ic < cin; ic++ {
						xBase := ((b*cin + ic) * h) * wd
						wBase := ((oc*cin + ic) * kh) * kw
						for ky := 0; ky < kh; ky++ {
							iy := oy*stride + ky - pad
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ix := ox*stride + kx - pad
								if ix < 0 || ix >= wd {
									continue
								}
								sum += x.Data[xBase+iy*wd+ix] * w.Data[wBase+ky*kw+kx]
							}
						}
					}
					out.Data[((b*cout+oc)*ho+oy)*wo+ox] = sum
				}
			}
		}
	}
	return out
}

func must(t testing.TB, x *tensor.Tensor, err error) *tensor.Tensor {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func refLayer(t testing.TB, l Layer, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	concat := func(a, b *tensor.Tensor) *tensor.Tensor {
		y, err := tensor.ConcatChannels(a, b)
		return must(t, y, err)
	}
	switch l := l.(type) {
	case *convLayer:
		y := refConv2D(x, l.w, l.b, l.stride, l.pad)
		if l.relu {
			tensor.ReLU(y)
		}
		return y
	case *poolLayer:
		y, err := tensor.MaxPool2D(x, l.k, l.stride)
		return must(t, y, err)
	case gapLayer:
		y, err := tensor.GlobalAvgPool(x)
		return must(t, y, err)
	case *denseLayer:
		flat, err := tensor.Flatten(x)
		y, err := tensor.Dense(must(t, flat, err), l.w, l.b)
		must(t, y, err)
		if l.relu {
			tensor.ReLU(y)
		}
		return y
	case *residualBlock:
		sum, err := tensor.Add(refLayer(t, l.c2, refLayer(t, l.c1, x)), x)
		return tensor.ReLU(must(t, sum, err))
	case *denseBlock:
		for _, c := range l.convs {
			x = concat(x, refLayer(t, c, x))
		}
		return x
	case *fireBlock:
		sq := refLayer(t, l.squeeze, x)
		return concat(refLayer(t, l.e1, sq), refLayer(t, l.e3, sq))
	case *inceptionBlock:
		return concat(refLayer(t, l.b1, x), refLayer(t, l.b3, x))
	}
	t.Fatalf("no reference for layer %T", l)
	return nil
}

func refForward(t testing.TB, net *Network, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	for _, l := range net.Layers {
		x = refLayer(t, l, x)
	}
	return x
}

func refPredict(t testing.TB, net *Network, x *tensor.Tensor) []int {
	t.Helper()
	probs, err := tensor.Softmax(refForward(t, net, x))
	classes, err := tensor.Argmax(must(t, probs, err))
	if err != nil {
		t.Fatal(err)
	}
	return classes
}

func seededBatch(n int, seed int64) *tensor.Tensor {
	x := tensor.MustNew(n, 3, InputSize, InputSize)
	x.FillRandom(rand.New(rand.NewSource(seed)), 1)
	return x
}

func equalLogits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: logits shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: logit %d = %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestForwardMatchesReference is the bit-identity oracle: every zoo
// architecture, at a batch that runs inline (1) and at batches that split
// across goroutines unevenly (3) and evenly (8). Images do not interact,
// so three reference images serve all three batches (the batch of 8
// repeats them), and each network's workspaces are reused across them.
func TestForwardMatchesReference(t *testing.T) {
	const distinct = 3
	x3 := seededBatch(distinct, 21)
	const in = 3 * InputSize * InputSize
	for _, m := range models.Default().All() {
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			net, err := Build(m.Name, 7)
			if err != nil {
				t.Fatal(err)
			}
			want := refForward(t, net, x3)
			for _, batch := range []int{1, 3, 8} {
				x := tensor.MustNew(batch, 3, InputSize, InputSize)
				for i := 0; i < batch; i++ {
					copy(x.Data[i*in:(i+1)*in], x3.Data[i%distinct*in:][:in])
				}
				got, err := net.Forward(x)
				if err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				if got.Shape[0] != batch || got.Shape[1] != NumClasses {
					t.Fatalf("batch %d: logits shape %v", batch, got.Shape)
				}
				for i, v := range got.Data {
					if w := want.Data[i/NumClasses%distinct*NumClasses+i%NumClasses]; v != w {
						t.Fatalf("batch %d: logit %d = %v, want %v", batch, i, v, w)
					}
				}
			}
		})
	}
}

// A steady-state Predict at batch 1 — what every gateway invoke runs —
// allocates its []int result and nothing else, whatever the architecture.
func TestPredictSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	x := seededBatch(1, 1)
	for _, m := range models.Default().All() {
		net, err := Build(m.Name, 7)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		// AllocsPerRun's warm-up call sizes the workspace.
		if n := testing.AllocsPerRun(5, func() {
			if _, err := net.Predict(x); err != nil {
				t.Fatal(err)
			}
		}); n > 1 {
			t.Errorf("%s: Predict allocates %v objects, want <= 1", m.Name, n)
		}
	}
}

// Concurrent callers of one Network must not share a workspace, and a
// result must not alias one that has gone back to the pool: eight
// goroutines with different inputs get the serial answers, logit for
// logit, while their peers keep recycling workspaces.
func TestConcurrentForwardMatchesSerial(t *testing.T) {
	net, err := Build("densenet121", 3)
	if err != nil {
		t.Fatal(err)
	}
	const callers, rounds = 8, 6
	inputs := make([]*tensor.Tensor, callers)
	wantLogits := make([]*tensor.Tensor, callers)
	wantClasses := make([][]int, callers)
	for g := range inputs {
		inputs[g] = seededBatch(1+g%2, int64(40+g))
		wantLogits[g] = refForward(t, net, inputs[g])
		wantClasses[g] = refPredict(t, net, inputs[g])
	}
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var kept []*tensor.Tensor
			for r := 0; r < rounds; r++ {
				logits, err := net.Forward(inputs[g])
				if err != nil {
					t.Error(err)
					return
				}
				kept = append(kept, logits)
				classes, err := net.Predict(inputs[g])
				if err != nil {
					t.Error(err)
					return
				}
				for i, c := range classes {
					if c != wantClasses[g][i] {
						t.Errorf("caller %d round %d: class[%d] = %d, want %d", g, r, i, c, wantClasses[g][i])
					}
				}
			}
			// Checked only now, after later calls reused the workspaces.
			for _, logits := range kept {
				for i, v := range wantLogits[g].Data {
					if logits.Data[i] != v {
						t.Errorf("caller %d: logit %d = %v, want %v", g, i, logits.Data[i], v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// Changing the batch size on one network keeps results right, and going
// back to batch 1 costs nothing new: the workspace is sized per image,
// not per batch.
func TestBatchSizeChange(t *testing.T) {
	net, err := Build("resnet18", 5)
	if err != nil {
		t.Fatal(err)
	}
	one, eight := seededBatch(1, 11), seededBatch(8, 12)
	for _, x := range []*tensor.Tensor{one, eight, one} {
		got, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		equalLogits(t, "resnet18", got, refForward(t, net, x))
	}
	if raceEnabled {
		return // sync.Pool drops items under -race
	}
	if _, err := net.Predict(eight); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := net.Predict(one); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("batch 1 after batch 8 allocates %v objects, want <= 1", n)
	}
}

// A layer error surfaces from Forward both inline (batch 1) and from the
// forked workers (batch 4).
func TestForwardReportsLayerError(t *testing.T) {
	net := &Network{Arch: "broken", Layers: []Layer{&poolLayer{"p", 64, 1}}}
	for _, batch := range []int{1, 4} {
		if _, err := net.Forward(seededBatch(batch, 1)); err == nil {
			t.Errorf("batch %d: oversized pool window should fail", batch)
		}
	}
}

// BenchmarkResNet18PredictB1 is one gateway invoke's CPU work: an image
// from the evaluation pool, preprocessing, and a batch-1 Predict.
func BenchmarkResNet18PredictB1(b *testing.B) {
	net, err := Build("resnet18", 1)
	if err != nil {
		b.Fatal(err)
	}
	pool, err := dataset.EvalPool(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := dataset.ToTensor(pool[i%len(pool):][:1], InputSize)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.Predict(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResNet18Forward(b *testing.B) {
	net, err := Build("resnet18", 1)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.MustNew(8, 3, InputSize, InputSize)
	x.FillRandom(rand.New(rand.NewSource(5)), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVGG19Forward(b *testing.B) {
	net, err := Build("vgg19", 1)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.MustNew(8, 3, InputSize, InputSize)
	x.FillRandom(rand.New(rand.NewSource(5)), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}
