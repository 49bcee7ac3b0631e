package dataset

import (
	"testing"
	"testing/quick"

	"gpufaas/internal/nn"
)

func TestSpecs(t *testing.T) {
	if len(Specs()) != 3 {
		t.Fatal("want 3 dataset specs")
	}
	m, err := SpecFor(MNIST)
	if err != nil || m.Width != 28 || m.Channels != 1 {
		t.Errorf("MNIST spec = %+v (%v)", m, err)
	}
	c, err := SpecFor(CIFAR10)
	if err != nil || c.Width != 32 || c.Channels != 3 {
		t.Errorf("CIFAR spec = %+v (%v)", c, err)
	}
	h, err := SpecFor(Hymenoptera)
	if err != nil || !h.Variable || h.NumClasses != 2 {
		t.Errorf("Hymenoptera spec = %+v (%v)", h, err)
	}
	if _, err := SpecFor("imagenet"); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestGenerateShapes(t *testing.T) {
	for _, k := range []Kind{MNIST, CIFAR10, Hymenoptera} {
		imgs, err := Generate(k, 10, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(imgs) != 10 {
			t.Fatalf("%s: %d images", k, len(imgs))
		}
		spec, _ := SpecFor(k)
		for _, im := range imgs {
			if len(im.Pixels) != im.Width*im.Height*im.Channels {
				t.Fatalf("%s: pixel buffer mismatch", k)
			}
			if im.Bytes() != len(im.Pixels) {
				t.Error("Bytes() wrong")
			}
			if im.Label < 0 || im.Label >= spec.NumClasses {
				t.Errorf("%s: label %d out of range", k, im.Label)
			}
			if !spec.Variable && (im.Width != spec.Width || im.Height != spec.Height) {
				t.Errorf("%s: fixed-size dataset produced %dx%d", k, im.Width, im.Height)
			}
			if spec.Variable && (im.Width < 128 || im.Width > 640) {
				t.Errorf("variable width %d out of range", im.Width)
			}
		}
	}
	if _, err := Generate(MNIST, -1, 1); err == nil {
		t.Error("negative count should fail")
	}
	if _, err := Generate("nope", 1, 1); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(CIFAR10, 5, 42)
	b, _ := Generate(CIFAR10, 5, 42)
	for i := range a {
		if a[i].Label != b[i].Label {
			t.Fatal("labels differ")
		}
		for j := range a[i].Pixels {
			if a[i].Pixels[j] != b[i].Pixels[j] {
				t.Fatal("pixels differ")
			}
		}
	}
}

func TestEvalPool(t *testing.T) {
	pool, err := EvalPool(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != 150 {
		t.Fatalf("pool = %d images, want 150 (paper §V-A2)", len(pool))
	}
	kinds := map[Kind]int{}
	for _, im := range pool {
		kinds[im.Dataset]++
	}
	if kinds[MNIST] != 50 || kinds[CIFAR10] != 50 || kinds[Hymenoptera] != 50 {
		t.Errorf("pool mix = %v", kinds)
	}
}

func TestToTensor(t *testing.T) {
	pool, err := EvalPool(1)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Batch(pool, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ToTensor(batch, nn.InputSize)
	if err != nil {
		t.Fatal(err)
	}
	if x.Shape[0] != 8 || x.Shape[1] != 3 || x.Shape[2] != 32 || x.Shape[3] != 32 {
		t.Fatalf("tensor shape = %v", x.Shape)
	}
	for _, v := range x.Data {
		if v < 0 || v >= 1 {
			t.Fatalf("pixel %v out of [0,1)", v)
		}
	}
	// A tensor built this way must be a valid network input.
	net, err := nn.Build("resnet18", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Predict(x); err != nil {
		t.Fatal(err)
	}
}

func TestToTensorErrors(t *testing.T) {
	if _, err := ToTensor(nil, 32); err == nil {
		t.Error("empty batch should fail")
	}
	imgs, _ := Generate(MNIST, 1, 1)
	if _, err := ToTensor(imgs, 0); err == nil {
		t.Error("zero size should fail")
	}
	bad := imgs[0]
	bad.Pixels = bad.Pixels[:10]
	if _, err := ToTensor([]Image{bad}, 32); err == nil {
		t.Error("malformed image should fail")
	}
}

// FillTensor is ToTensor without the allocation: same values into a dirty
// caller-owned buffer, nothing allocated, wrong sizes rejected.
func TestFillTensor(t *testing.T) {
	var imgs []Image
	for _, k := range []Kind{MNIST, CIFAR10, Hymenoptera} {
		one, err := Generate(k, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, one...)
	}
	want, err := ToTensor(imgs, 32)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, len(want.Data))
	for i := range dst {
		dst[i] = -1
	}
	if n := testing.AllocsPerRun(5, func() {
		if err := FillTensor(dst, imgs, 32); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("FillTensor allocates %v objects, want 0", n)
	}
	for i, v := range want.Data {
		if dst[i] != v {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], v)
		}
	}
	if err := FillTensor(dst[1:], imgs, 32); err == nil {
		t.Error("short destination should fail")
	}
	if err := FillTensor(dst, imgs[:2], 32); err == nil {
		t.Error("long destination should fail")
	}
	if err := FillTensor(nil, nil, 32); err != nil {
		t.Errorf("empty batch into empty buffer: %v", err)
	}
	noChannels := Image{Width: 2, Height: 2}
	if err := FillTensor(make([]float32, 3*32*32), []Image{noChannels}, 32); err == nil {
		t.Error("zero-channel image should fail")
	}
}

func TestBatchWraps(t *testing.T) {
	pool, _ := Generate(CIFAR10, 3, 1)
	b, err := Batch(pool, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 4 {
		t.Fatalf("batch = %d", len(b))
	}
	if b[0].Label != pool[2].Label || b[1].Label != pool[0].Label {
		t.Error("wrap-around order wrong")
	}
	if _, err := Batch(nil, 0, 1); err == nil {
		t.Error("empty pool should fail")
	}
	if _, err := Batch(pool, 0, 0); err == nil {
		t.Error("zero batch should fail")
	}
}

// Property: ToTensor output is always within [0,1) and shaped correctly
// for any pool offset/batch size.
func TestToTensorRangeProperty(t *testing.T) {
	pool, err := EvalPool(7)
	if err != nil {
		t.Fatal(err)
	}
	f := func(offset uint8, nRaw uint8) bool {
		n := int(nRaw)%16 + 1
		b, err := Batch(pool, int(offset), n)
		if err != nil {
			return false
		}
		x, err := ToTensor(b, 32)
		if err != nil {
			return false
		}
		if x.Shape[0] != n {
			return false
		}
		for _, v := range x.Data {
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
