package tensor

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndShape(t *testing.T) {
	x, err := New(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if x.Len() != 24 || x.Dims() != 3 || x.Dim(1) != 3 {
		t.Errorf("shape accessors wrong: %+v", x)
	}
	if _, err := New(2, 0); err == nil {
		t.Error("zero dim should fail")
	}
	if _, err := FromData([]float32{1, 2, 3}, 2, 2); err == nil {
		t.Error("mismatched FromData should fail")
	}
	y, err := FromData([]float32{1, 2, 3, 4}, 2, 2)
	if err != nil || y.Data[3] != 4 {
		t.Errorf("FromData: %v %v", y, err)
	}
}

func TestReshapeAndClone(t *testing.T) {
	x := MustNew(2, 6)
	x.Data[0] = 5
	y, err := x.Reshape(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if y.Data[0] != 5 {
		t.Error("reshape should share data")
	}
	if _, err := x.Reshape(5, 5); err == nil {
		t.Error("size-changing reshape should fail")
	}
	c := x.Clone()
	c.Data[0] = 9
	if x.Data[0] != 5 {
		t.Error("clone must not alias")
	}
	if !x.SameShape(MustNew(2, 6)) || x.SameShape(MustNew(6, 2)) || x.SameShape(MustNew(12)) {
		t.Error("SameShape wrong")
	}
}

func TestConv2DIdentity(t *testing.T) {
	// 1x1 kernel with weight 1 is identity.
	x, _ := FromData([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	w, _ := FromData([]float32{1}, 1, 1, 1, 1)
	y, err := Conv2D(x, w, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatalf("identity conv: %v", y.Data)
		}
	}
}

func TestConv2DKnown(t *testing.T) {
	// 3x3 input, 2x2 kernel of ones, stride 1, no pad -> 2x2 sums.
	x, _ := FromData([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	w, _ := FromData([]float32{1, 1, 1, 1}, 1, 1, 2, 2)
	bias, _ := FromData([]float32{10}, 1)
	y, err := Conv2D(x, w, bias, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1 + 2 + 4 + 5 + 10, 2 + 3 + 5 + 6 + 10, 4 + 5 + 7 + 8 + 10, 5 + 6 + 8 + 9 + 10}
	for i, v := range want {
		if y.Data[i] != v {
			t.Fatalf("conv out = %v, want %v", y.Data, want)
		}
	}
}

func TestConv2DPaddingAndStride(t *testing.T) {
	x := MustNew(1, 1, 4, 4)
	for i := range x.Data {
		x.Data[i] = 1
	}
	w, _ := FromData([]float32{1, 1, 1, 1, 1, 1, 1, 1, 1}, 1, 1, 3, 3)
	y, err := Conv2D(x, w, nil, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if y.Shape[2] != 2 || y.Shape[3] != 2 {
		t.Fatalf("shape = %v", y.Shape)
	}
	// Top-left window covers 4 ones (corner), center windows more.
	if y.Data[0] != 4 {
		t.Errorf("corner = %v", y.Data[0])
	}
}

func TestConv2DErrors(t *testing.T) {
	x := MustNew(1, 2, 4, 4)
	w := MustNew(3, 5, 3, 3) // Cin mismatch
	if _, err := Conv2D(x, w, nil, 1, 0); err == nil {
		t.Error("Cin mismatch should fail")
	}
	w2 := MustNew(3, 2, 3, 3)
	if _, err := Conv2D(x, w2, MustNew(7), 1, 0); err == nil {
		t.Error("bias mismatch should fail")
	}
	if _, err := Conv2D(x, w2, nil, 0, 0); err == nil {
		t.Error("zero stride should fail")
	}
	if _, err := Conv2D(x, MustNew(1, 2, 9, 9), nil, 1, 0); err == nil {
		t.Error("kernel larger than input should fail")
	}
	if _, err := Conv2D(MustNew(2, 2), w2, nil, 1, 0); err == nil {
		t.Error("2-D input should fail")
	}
	// (h+2·pad-kh)/stride truncates toward zero, so an ho <= 0 test alone
	// lets a window up to stride-1 larger than the padded input through
	// as a 1x1 output.
	for _, c := range []struct{ h, w, kh, kw, stride, pad int }{
		{2, 4, 3, 3, 2, 0}, {4, 2, 3, 3, 2, 0}, {2, 2, 5, 5, 2, 1}, {4, 4, 7, 3, 4, 1},
	} {
		_, err := Conv2D(MustNew(1, 2, c.h, c.w), MustNew(3, 2, c.kh, c.kw), nil, c.stride, c.pad)
		if !errors.Is(err, ErrShape) {
			t.Errorf("%+v: err = %v, want ErrShape", c, err)
		}
	}
	var scratch []float32
	if err := Conv2DInto(make([]float32, 5), x.Data, 4, 4, w2, nil, 1, 0, &scratch); !errors.Is(err, ErrShape) {
		t.Errorf("short dst: err = %v, want ErrShape", err)
	}
	if err := Conv2DInto(make([]float32, 12), x.Data[:30], 4, 4, w2, nil, 1, 0, &scratch); !errors.Is(err, ErrShape) {
		t.Errorf("ragged input: err = %v, want ErrShape", err)
	}
}

// refConv2D is the textbook per-pixel convolution — one output at a time,
// every tap bounds-tested — and the oracle Conv2DInto must match bit for
// bit.
func refConv2D(x, w, bias *Tensor, stride, pad int) *Tensor {
	n, cin, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cout, kh, kw := w.Shape[0], w.Shape[2], w.Shape[3]
	ho := (h+2*pad-kh)/stride + 1
	wo := (wd+2*pad-kw)/stride + 1
	out := MustNew(n, cout, ho, wo)
	for job := 0; job < n*cout; job++ {
		b := job / cout
		oc := job % cout
		var bv float32
		if bias != nil {
			bv = bias.Data[oc]
		}
		for oy := 0; oy < ho; oy++ {
			for ox := 0; ox < wo; ox++ {
				sum := bv
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
	return out
}

// TestConv2DMatchesReference: the row-wise kernel must reproduce the
// per-pixel loop bit for bit — every k/stride/pad the zoo uses, plus odd
// sizes, single channels, non-square planes and kernels, and nil bias.
func TestConv2DMatchesReference(t *testing.T) {
	cases := []struct {
		name                               string
		n, cin, cout, h, w, kh, kw, s, pad int
		bias                               bool
	}{
		{"zoo 3x3 s1 p1 stem", 2, 3, 16, 32, 32, 3, 3, 1, 1, true},
		{"zoo 3x3 s2 p1 stem", 1, 3, 16, 32, 32, 3, 3, 2, 1, true},
		{"zoo 5x5 s2 p2", 1, 3, 24, 32, 32, 5, 5, 2, 2, true},
		{"zoo 1x1", 3, 16, 4, 16, 16, 1, 1, 1, 0, true},
		{"zoo 16->16 residual", 1, 16, 16, 16, 16, 3, 3, 1, 1, true},
		{"zoo 8x8 residual", 1, 16, 16, 8, 8, 3, 3, 1, 1, false},
		{"odd plane", 2, 5, 7, 11, 13, 3, 3, 1, 1, true},
		{"odd plane s2", 1, 5, 7, 11, 13, 3, 3, 2, 1, false},
		{"odd plane s3 p0", 1, 2, 3, 10, 7, 3, 3, 3, 0, true},
		{"cin=cout=1", 1, 1, 1, 9, 9, 3, 3, 1, 1, false},
		{"wide pad", 1, 2, 2, 5, 6, 3, 3, 1, 2, true},
		{"non-square kernel", 2, 3, 4, 9, 12, 2, 5, 1, 1, true},
		{"3-wide kernel, 1 tall", 1, 3, 4, 6, 9, 1, 3, 1, 0, true},
		{"window == padded input", 1, 2, 3, 3, 3, 5, 5, 1, 1, true},
		{"1x1 plane", 2, 4, 4, 1, 1, 3, 3, 1, 1, true},
	}
	for i, c := range cases {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		x := MustNew(c.n, c.cin, c.h, c.w)
		x.FillRandom(rng, 1)
		w := MustNew(c.cout, c.cin, c.kh, c.kw)
		w.FillRandom(rng, 0.3)
		var bias *Tensor
		if c.bias {
			bias = MustNew(c.cout)
			bias.FillRandom(rng, 0.5)
		}
		got, err := Conv2D(x, w, bias, c.s, c.pad)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := refConv2D(x, w, bias, c.s, c.pad)
		if !got.SameShape(want) {
			t.Fatalf("%s: shape %v, want %v", c.name, got.Shape, want.Shape)
		}
		for j := range want.Data {
			if got.Data[j] != want.Data[j] {
				t.Fatalf("%s: out[%d] = %v, want %v", c.name, j, got.Data[j], want.Data[j])
			}
		}
	}
}

// The "into" kernels write every element of their destination and do not
// allocate once the conv scratch has grown.
func TestIntoKernelsOverwriteAndDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := MustNew(1, 4, 8, 8)
	x.FillRandom(rng, 1)
	w := MustNew(6, 4, 3, 3)
	w.FillRandom(rng, 0.3)
	fw := MustNew(5, 6*4*4)
	fw.FillRandom(rng, 0.3)
	conv := make([]float32, 6*8*8)
	pool := make([]float32, 6*4*4)
	gap := make([]float32, 6)
	fc := make([]float32, 5)
	sm := make([]float32, 5)
	var scratch []float32
	run := func() {
		for _, d := range [][]float32{conv, pool, gap, fc, sm} {
			for i := range d {
				d[i] = float32(math.NaN())
			}
		}
		if err := Conv2DInto(conv, x.Data, 8, 8, w, nil, 1, 1, &scratch); err != nil {
			t.Fatal(err)
		}
		if err := MaxPool2DInto(pool, conv, 8, 8, 2, 2); err != nil {
			t.Fatal(err)
		}
		GlobalAvgPoolInto(gap, pool)
		if err := DenseInto(fc, pool, fw, nil); err != nil {
			t.Fatal(err)
		}
		SoftmaxInto(sm, fc)
	}
	run()
	wantConv, _ := Conv2D(x, w, nil, 1, 1)
	wantPool, _ := MaxPool2D(wantConv, 2, 2)
	wantGap, _ := GlobalAvgPool(wantPool)
	flat, _ := Flatten(wantPool)
	wantFC, _ := Dense(flat, fw, nil)
	wantSM, _ := Softmax(wantFC)
	for _, p := range []struct {
		name      string
		got, want []float32
	}{{"conv", conv, wantConv.Data}, {"pool", pool, wantPool.Data}, {"gap", gap, wantGap.Data}, {"dense", fc, wantFC.Data}, {"softmax", sm, wantSM.Data}} {
		for i := range p.want {
			if p.got[i] != p.want[i] {
				t.Fatalf("%s[%d] = %v, want %v", p.name, i, p.got[i], p.want[i])
			}
		}
	}
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Errorf("into kernels allocate %v objects per run, want 0", n)
	}
	if err := DenseInto(fc, pool[:7], fw, nil); !errors.Is(err, ErrShape) {
		t.Errorf("dense short input: err = %v, want ErrShape", err)
	}
	if err := MaxPool2DInto(pool[:5], conv, 8, 8, 2, 2); !errors.Is(err, ErrShape) {
		t.Errorf("maxpool short dst: err = %v, want ErrShape", err)
	}
}

func TestDense(t *testing.T) {
	x, _ := FromData([]float32{1, 2}, 1, 2)
	w, _ := FromData([]float32{3, 4, 5, 6}, 2, 2) // rows: [3,4],[5,6]
	b, _ := FromData([]float32{0.5, -0.5}, 2)
	y, err := Dense(x, w, b)
	if err != nil {
		t.Fatal(err)
	}
	if y.Data[0] != 1*3+2*4+0.5 || y.Data[1] != 1*5+2*6-0.5 {
		t.Fatalf("dense = %v", y.Data)
	}
	if _, err := Dense(x, MustNew(2, 3), nil); err == nil {
		t.Error("inner-dim mismatch should fail")
	}
	if _, err := Dense(x, w, MustNew(3)); err == nil {
		t.Error("bias mismatch should fail")
	}
}

func TestReLU(t *testing.T) {
	x, _ := FromData([]float32{-1, 0, 2}, 3, 1)
	ReLU(x)
	if x.Data[0] != 0 || x.Data[1] != 0 || x.Data[2] != 2 {
		t.Errorf("relu = %v", x.Data)
	}
}

func TestAddAndConcat(t *testing.T) {
	a, _ := FromData([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	b, _ := FromData([]float32{10, 20, 30, 40}, 1, 1, 2, 2)
	s, err := Add(a, b)
	if err != nil || s.Data[3] != 44 {
		t.Errorf("add = %v (%v)", s.Data, err)
	}
	if _, err := Add(a, MustNew(1, 1, 2, 3)); err == nil {
		t.Error("shape mismatch add should fail")
	}
	c, err := ConcatChannels(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.Shape[1] != 2 || c.Data[0] != 1 || c.Data[4] != 10 {
		t.Errorf("concat = %v %v", c.Shape, c.Data)
	}
	if _, err := ConcatChannels(); err == nil {
		t.Error("empty concat should fail")
	}
	if _, err := ConcatChannels(a, MustNew(1, 1, 3, 3)); err == nil {
		t.Error("mismatched concat should fail")
	}
}

func TestMaxPool(t *testing.T) {
	x, _ := FromData([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y, err := MaxPool2D(x, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{6, 8, 14, 16}
	for i, v := range want {
		if y.Data[i] != v {
			t.Fatalf("maxpool = %v", y.Data)
		}
	}
	if _, err := MaxPool2D(MustNew(2, 2), 2, 2); err == nil {
		t.Error("2-D input should fail")
	}
	if _, err := MaxPool2D(x, 0, 1); err == nil {
		t.Error("zero k should fail")
	}
	if _, err := MaxPool2D(x, 9, 1); err == nil {
		t.Error("pool larger than input should fail")
	}
	// (h-k)/stride truncates toward zero: a 3-wide window at stride 2 over
	// a 2x2 plane computes ho = 1, which must not reach the kernel.
	if _, err := MaxPool2D(MustNew(1, 1, 2, 2), 3, 2); !errors.Is(err, ErrShape) {
		t.Errorf("3x3/2 pool over 2x2: err = %v, want ErrShape", err)
	}
	if _, err := MaxPool2D(MustNew(1, 1, 4, 2), 3, 2); !errors.Is(err, ErrShape) {
		t.Errorf("3x3/2 pool over 4x2: err = %v, want ErrShape", err)
	}
}

func TestGlobalAvgPool(t *testing.T) {
	x, _ := FromData([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	y, err := GlobalAvgPool(x)
	if err != nil {
		t.Fatal(err)
	}
	if y.Data[0] != 2.5 || y.Data[1] != 25 {
		t.Errorf("gap = %v", y.Data)
	}
	if _, err := GlobalAvgPool(MustNew(2, 2)); err == nil {
		t.Error("2-D input should fail")
	}
}

func TestBatchNorm(t *testing.T) {
	x, _ := FromData([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	gamma, _ := FromData([]float32{2}, 1)
	beta, _ := FromData([]float32{1}, 1)
	mean, _ := FromData([]float32{2.5}, 1)
	variance, _ := FromData([]float32{1}, 1)
	if _, err := BatchNorm(x, gamma, beta, mean, variance, 0); err != nil {
		t.Fatal(err)
	}
	// y = 2*(x-2.5)/1 + 1
	want := []float32{-2, 0, 2, 4}
	for i, v := range want {
		if math.Abs(float64(x.Data[i]-v)) > 1e-5 {
			t.Fatalf("bn = %v", x.Data)
		}
	}
	if _, err := BatchNorm(x, MustNew(3), beta, mean, variance, 0); err == nil {
		t.Error("param mismatch should fail")
	}
	if _, err := BatchNorm(MustNew(2, 2), gamma, beta, mean, variance, 0); err == nil {
		t.Error("2-D input should fail")
	}
}

func TestSoftmaxAndArgmax(t *testing.T) {
	x, _ := FromData([]float32{1, 2, 3, 3, 2, 1}, 2, 3)
	p, err := Softmax(x)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		var sum float64
		for i := 0; i < 3; i++ {
			v := float64(p.Data[b*3+i])
			if v <= 0 || v >= 1 {
				t.Errorf("prob out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("row %d sums to %v", b, sum)
		}
	}
	am, err := Argmax(p)
	if err != nil {
		t.Fatal(err)
	}
	if am[0] != 2 || am[1] != 0 {
		t.Errorf("argmax = %v", am)
	}
	if _, err := Softmax(MustNew(1, 2, 3)); err == nil {
		t.Error("3-D softmax should fail")
	}
	if _, err := Argmax(MustNew(1, 2, 3)); err == nil {
		t.Error("3-D argmax should fail")
	}
}

func TestFlatten(t *testing.T) {
	x := MustNew(2, 3, 4, 5)
	y, err := Flatten(x)
	if err != nil {
		t.Fatal(err)
	}
	if y.Shape[0] != 2 || y.Shape[1] != 60 {
		t.Errorf("flatten = %v", y.Shape)
	}
	if _, err := Flatten(MustNew(5)); err == nil {
		t.Error("1-D flatten should fail")
	}
}

func TestFillRandomDeterministic(t *testing.T) {
	a := MustNew(100)
	b := MustNew(100)
	a.FillRandom(rand.New(rand.NewSource(7)), 0.1)
	b.FillRandom(rand.New(rand.NewSource(7)), 0.1)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed produced different weights")
		}
	}
}

// Property: softmax output is a probability distribution for any input.
func TestSoftmaxProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		n := len(raw)
		data := make([]float32, n)
		for i, v := range raw {
			data[i] = float32(v) / 8
		}
		x, err := FromData(data, 1, n)
		if err != nil {
			return false
		}
		p, err := Softmax(x)
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range p.Data {
			if v < 0 || v > 1 {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: conv with a single 1x1 unit kernel preserves any input.
func TestConvIdentityProperty(t *testing.T) {
	f := func(raw []int8) bool {
		n := len(raw)
		if n < 4 {
			return true
		}
		side := int(math.Sqrt(float64(n)))
		if side < 2 {
			return true
		}
		data := make([]float32, side*side)
		for i := range data {
			data[i] = float32(raw[i])
		}
		x, err := FromData(data, 1, 1, side, side)
		if err != nil {
			return false
		}
		w, _ := FromData([]float32{1}, 1, 1, 1, 1)
		y, err := Conv2D(x, w, nil, 1, 0)
		if err != nil {
			return false
		}
		for i := range x.Data {
			if y.Data[i] != x.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkConv2D(b *testing.B) {
	x := MustNew(1, 16, 32, 32)
	w := MustNew(32, 16, 3, 3)
	x.FillRandom(rand.New(rand.NewSource(1)), 1)
	w.FillRandom(rand.New(rand.NewSource(2)), 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Conv2D(x, w, nil, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDense(b *testing.B) {
	x := MustNew(32, 512)
	w := MustNew(256, 512)
	x.FillRandom(rand.New(rand.NewSource(1)), 1)
	w.FillRandom(rand.New(rand.NewSource(2)), 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Dense(x, w, nil); err != nil {
			b.Fatal(err)
		}
	}
}
