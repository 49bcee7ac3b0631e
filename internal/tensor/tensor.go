// Package tensor is a small CPU tensor library supporting the forward
// passes of the CNN architectures in the model zoo (internal/nn). Layout
// is dense NCHW float32.
//
// Every compute kernel exists once, as an "Into" function that works on
// one image (or one row) of raw float32s and writes into memory the
// caller owns; it allocates nothing, so internal/nn can run a whole
// network inside a reusable workspace. The *Tensor functions of the same
// name (Conv2D, MaxPool2D, Dense, GlobalAvgPool, Softmax) are thin
// allocating wrappers that loop the kernel over the batch. Nothing here
// starts goroutines: a live invoke is one image on a request goroutine
// that already shares the cores with its peers, and internal/nn splits
// larger batches by image.
package tensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense n-dimensional array of float32 in row-major order.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("tensor: non-positive dim %d in %v", d, shape)
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}, nil
}

// MustNew is New for statically-correct shapes; panics on error.
func MustNew(shape ...int) *Tensor {
	t, err := New(shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// FromData wraps data with a shape; the length must match.
func FromData(data []float32, shape ...int) (*Tensor, error) {
	t, err := New(shape...)
	if err != nil {
		return nil, err
	}
	if len(data) != len(t.Data) {
		return nil, fmt.Errorf("tensor: data len %d != shape size %d", len(data), len(t.Data))
	}
	copy(t.Data, data)
	return t, nil
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.Shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// SameShape reports whether two tensors have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float32, len(t.Data))}
	copy(out.Data, t.Data)
	return out
}

// Reshape returns a view-copy with a new shape of equal size.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("tensor: non-positive dim in %v", shape)
		}
		n *= d
	}
	if n != len(t.Data) {
		return nil, fmt.Errorf("tensor: reshape %v -> %v changes size", t.Shape, shape)
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}, nil
}

// FillRandom fills with N(0, stddev) values from rng (deterministic model
// initialization).
func (t *Tensor) FillRandom(rng *rand.Rand, stddev float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * stddev)
	}
}

// ErrShape indicates incompatible operand shapes.
var ErrShape = errors.New("tensor: shape mismatch")

// OutHW returns the output size of a kh×kw window sliding with the given
// stride over an h×w plane padded by pad on every side. A window larger
// than the padded plane is an error, not a clipped 1-wide output: the
// kernels below have no per-tap bounds test.
func OutHW(h, w, kh, kw, stride, pad int) (ho, wo int, err error) {
	if kh <= 0 || kw <= 0 || stride <= 0 || pad < 0 {
		return 0, 0, fmt.Errorf("tensor: invalid window %dx%d stride=%d pad=%d", kh, kw, stride, pad)
	}
	if kh > h+2*pad || kw > w+2*pad {
		return 0, 0, fmt.Errorf("%w: window %dx%d over input %dx%d (pad %d)", ErrShape, kh, kw, h, w, pad)
	}
	return (h+2*pad-kh)/stride + 1, (w+2*pad-kw)/stride + 1, nil
}

// convGeom validates one image's convolution operands and returns the
// output geometry.
func convGeom(cin, h, wd int, w, bias *Tensor, stride, pad int) (cout, ho, wo int, err error) {
	if w.Dims() != 4 {
		return 0, 0, 0, fmt.Errorf("%w: conv2d needs 4-D w, got %v", ErrShape, w.Shape)
	}
	cout = w.Shape[0]
	if cin != w.Shape[1] {
		return 0, 0, 0, fmt.Errorf("%w: conv2d Cin %d != weight Cin %d", ErrShape, cin, w.Shape[1])
	}
	if bias != nil && (bias.Dims() != 1 || bias.Shape[0] != cout) {
		return 0, 0, 0, fmt.Errorf("%w: conv2d bias %v, want [%d]", ErrShape, bias.Shape, cout)
	}
	ho, wo, err = OutHW(h, wd, w.Shape[2], w.Shape[3], stride, pad)
	return cout, ho, wo, err
}

// Conv2D computes a 2-D convolution. x is [N, Cin, H, W]; w is
// [Cout, Cin, KH, KW]; bias (may be nil) is [Cout]. Stride and padding are
// symmetric. Output is [N, Cout, Ho, Wo].
func Conv2D(x, w, bias *Tensor, stride, pad int) (*Tensor, error) {
	if x.Dims() != 4 {
		return nil, fmt.Errorf("%w: conv2d needs 4-D x, got %v", ErrShape, x.Shape)
	}
	n, cin, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cout, ho, wo, err := convGeom(cin, h, wd, w, bias, stride, pad)
	if err != nil {
		return nil, err
	}
	out := MustNew(n, cout, ho, wo)
	in, on := cin*h*wd, cout*ho*wo
	var scratch []float32
	for b := 0; b < n; b++ {
		if err := Conv2DInto(out.Data[b*on:(b+1)*on], x.Data[b*in:(b+1)*in], h, wd, w, bias, stride, pad, &scratch); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Conv2DInto convolves one image: x is [Cin, h, wd], dst is
// [Cout, Ho, Wo] and is overwritten. It is the package's only convolution
// kernel. The input is first copied into *scratch with a zero border of
// pad pixels (scratch is grown on demand and worth keeping between
// calls), so the tap loops run over whole output rows with no bounds
// tests; each output still accumulates bias, then its taps in
// (ic, ky, kx) order, so results are bit-identical to the per-pixel
// reference in tensor_test.go for finite weights.
func Conv2DInto(dst, x []float32, h, wd int, w, bias *Tensor, stride, pad int, scratch *[]float32) error {
	if h <= 0 || wd <= 0 || len(x)%(h*wd) != 0 {
		return fmt.Errorf("%w: conv2d input len %d is not planes of %dx%d", ErrShape, len(x), h, wd)
	}
	cin := len(x) / (h * wd)
	cout, ho, wo, err := convGeom(cin, h, wd, w, bias, stride, pad)
	if err != nil {
		return err
	}
	if len(dst) != cout*ho*wo {
		return fmt.Errorf("%w: conv2d dst len %d, want %dx%dx%d", ErrShape, len(dst), cout, ho, wo)
	}
	kh, kw := w.Shape[2], w.Shape[3]
	hp, wp := h+2*pad, wd+2*pad
	if pad > 0 {
		if cap(*scratch) < cin*hp*wp {
			*scratch = make([]float32, cin*hp*wp)
		}
		p := (*scratch)[:cin*hp*wp]
		clear(p)
		for r := 0; r < cin*h; r++ {
			copy(p[((r/h)*hp+r%h+pad)*wp+pad:], x[r*wd:(r+1)*wd])
		}
		x = p
	}
	for oc := 0; oc < cout; oc++ {
		var bv float32
		if bias != nil {
			bv = bias.Data[oc]
		}
		for oy := 0; oy < ho; oy++ {
			d := dst[(oc*ho+oy)*wo : (oc*ho+oy+1)*wo]
			for i := range d {
				d[i] = bv
			}
			for ic := 0; ic < cin; ic++ {
				for ky := 0; ky < kh; ky++ {
					row := x[(ic*hp+oy*stride+ky)*wp:][:wp]
					taps := w.Data[((oc*cin+ic)*kh+ky)*kw:][:kw]
					if kw == 3 && stride == 1 {
						x0, x1, x2 := row[:len(d)], row[1:][:len(d)], row[2:][:len(d)]
						w0, w1, w2 := taps[0], taps[1], taps[2]
						for i, s := range d {
							s += x0[i] * w0
							s += x1[i] * w1
							s += x2[i] * w2
							d[i] = s
						}
						continue
					}
					for kx, wv := range taps {
						for i := range d {
							d[i] += row[i*stride+kx] * wv
						}
					}
				}
			}
		}
	}
	return nil
}

// Dense computes y = x·Wᵀ + b. x is [N, In]; w is [Out, In]; b (may be
// nil) is [Out]. Output is [N, Out].
func Dense(x, w, bias *Tensor) (*Tensor, error) {
	if x.Dims() != 2 || w.Dims() != 2 {
		return nil, fmt.Errorf("%w: dense needs 2-D x and w", ErrShape)
	}
	n, in, outDim := x.Shape[0], x.Shape[1], w.Shape[0]
	out := MustNew(n, outDim)
	for b := 0; b < n; b++ {
		if err := DenseInto(out.Data[b*outDim:(b+1)*outDim], x.Data[b*in:(b+1)*in], w, bias); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DenseInto computes one row of Dense: dst = W·x + b with w [Out, In],
// len(x) == In and len(dst) == Out.
func DenseInto(dst, x []float32, w, bias *Tensor) error {
	if w.Dims() != 2 || len(x) != w.Shape[1] || len(dst) != w.Shape[0] {
		return fmt.Errorf("%w: dense %d -> %d with weight %v", ErrShape, len(x), len(dst), w.Shape)
	}
	if bias != nil && (bias.Dims() != 1 || bias.Shape[0] != len(dst)) {
		return fmt.Errorf("%w: dense bias %v, want [%d]", ErrShape, bias.Shape, len(dst))
	}
	for o := range dst {
		wRow := w.Data[o*len(x):][:len(x)]
		var sum float32
		if bias != nil {
			sum = bias.Data[o]
		}
		for i, xv := range x {
			sum += xv * wRow[i]
		}
		dst[o] = sum
	}
	return nil
}

// ReLU applies max(0, x) in place and returns x.
func ReLU(x *Tensor) *Tensor {
	ReLUSlice(x.Data)
	return x
}

// ReLUSlice applies max(0, x) to xs in place.
func ReLUSlice(xs []float32) {
	for i, v := range xs {
		if v < 0 {
			xs[i] = 0
		}
	}
}

// Add computes x + y element-wise into a new tensor (residual connections).
func Add(x, y *Tensor) (*Tensor, error) {
	if !x.SameShape(y) {
		return nil, fmt.Errorf("%w: add %v vs %v", ErrShape, x.Shape, y.Shape)
	}
	out := x.Clone()
	for i, v := range y.Data {
		out.Data[i] += v
	}
	return out, nil
}

// ConcatChannels concatenates 4-D tensors along the channel dimension
// (DenseNet blocks).
func ConcatChannels(xs ...*Tensor) (*Tensor, error) {
	if len(xs) == 0 {
		return nil, errors.New("tensor: concat of nothing")
	}
	n, h, w := xs[0].Shape[0], xs[0].Shape[2], xs[0].Shape[3]
	totalC := 0
	for _, x := range xs {
		if x.Dims() != 4 || x.Shape[0] != n || x.Shape[2] != h || x.Shape[3] != w {
			return nil, fmt.Errorf("%w: concat operand %v", ErrShape, x.Shape)
		}
		totalC += x.Shape[1]
	}
	out := MustNew(n, totalC, h, w)
	hw := h * w
	for b := 0; b < n; b++ {
		off := 0
		for _, x := range xs {
			c := x.Shape[1]
			src := x.Data[b*c*hw : (b+1)*c*hw]
			dst := out.Data[(b*totalC+off)*hw : (b*totalC+off+c)*hw]
			copy(dst, src)
			off += c
		}
	}
	return out, nil
}

// MaxPool2D applies kxk max pooling with the given stride to a 4-D tensor.
func MaxPool2D(x *Tensor, k, stride int) (*Tensor, error) {
	if x.Dims() != 4 {
		return nil, fmt.Errorf("%w: maxpool needs 4-D input", ErrShape)
	}
	h, w := x.Shape[2], x.Shape[3]
	ho, wo, err := OutHW(h, w, k, k, stride, 0)
	if err != nil {
		return nil, err
	}
	out := MustNew(x.Shape[0], x.Shape[1], ho, wo)
	return out, MaxPool2DInto(out.Data, x.Data, h, w, k, stride)
}

// MaxPool2DInto pools every h×w plane of x into the matching Ho×Wo plane
// of dst.
func MaxPool2DInto(dst, x []float32, h, w, k, stride int) error {
	ho, wo, err := OutHW(h, w, k, k, stride, 0)
	if err != nil {
		return err
	}
	if len(x)%(h*w) != 0 || len(dst) != len(x)/(h*w)*ho*wo {
		return fmt.Errorf("%w: maxpool %d floats of %dx%d planes into %d", ErrShape, len(x), h, w, len(dst))
	}
	for p := 0; p < len(x)/(h*w); p++ {
		plane := x[p*h*w : (p+1)*h*w]
		for oy := 0; oy < ho; oy++ {
			for ox := 0; ox < wo; ox++ {
				best := float32(math.Inf(-1))
				for ky := 0; ky < k; ky++ {
					for _, v := range plane[(oy*stride+ky)*w+ox*stride:][:k] {
						if v > best {
							best = v
						}
					}
				}
				dst[(p*ho+oy)*wo+ox] = best
			}
		}
	}
	return nil
}

// GlobalAvgPool reduces a 4-D tensor [N,C,H,W] to [N,C] by averaging each
// channel plane.
func GlobalAvgPool(x *Tensor) (*Tensor, error) {
	if x.Dims() != 4 {
		return nil, fmt.Errorf("%w: gap needs 4-D input", ErrShape)
	}
	out := MustNew(x.Shape[0], x.Shape[1])
	GlobalAvgPoolInto(out.Data, x.Data)
	return out, nil
}

// GlobalAvgPoolInto averages x in len(dst) equal consecutive planes.
func GlobalAvgPoolInto(dst, x []float32) {
	hw := len(x) / len(dst)
	for j := range dst {
		var sum float32
		for _, v := range x[j*hw : (j+1)*hw] {
			sum += v
		}
		dst[j] = sum / float32(hw)
	}
}

// BatchNorm applies per-channel inference-mode normalization
// y = gamma*(x-mean)/sqrt(var+eps) + beta to a 4-D tensor in place.
func BatchNorm(x, gamma, beta, mean, variance *Tensor, eps float32) (*Tensor, error) {
	if x.Dims() != 4 {
		return nil, fmt.Errorf("%w: batchnorm needs 4-D input", ErrShape)
	}
	c := x.Shape[1]
	for _, p := range []*Tensor{gamma, beta, mean, variance} {
		if p.Dims() != 1 || p.Shape[0] != c {
			return nil, fmt.Errorf("%w: batchnorm param %v, want [%d]", ErrShape, p.Shape, c)
		}
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	hw := h * w
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			scale := gamma.Data[ch] / float32(math.Sqrt(float64(variance.Data[ch]+eps)))
			shift := beta.Data[ch] - mean.Data[ch]*scale
			seg := x.Data[(b*c+ch)*hw : (b*c+ch+1)*hw]
			for i, v := range seg {
				seg[i] = v*scale + shift
			}
		}
	}
	return x, nil
}

// Softmax applies a row-wise softmax to a 2-D tensor, returning a new
// tensor of probabilities.
func Softmax(x *Tensor) (*Tensor, error) {
	if x.Dims() != 2 {
		return nil, fmt.Errorf("%w: softmax needs 2-D input", ErrShape)
	}
	n, c := x.Shape[0], x.Shape[1]
	out := MustNew(n, c)
	for b := 0; b < n; b++ {
		SoftmaxInto(out.Data[b*c:(b+1)*c], x.Data[b*c:(b+1)*c])
	}
	return out, nil
}

// SoftmaxInto writes the softmax of the non-empty row x into dst, which
// must be as long.
func SoftmaxInto(dst, x []float32) {
	dst = dst[:len(x)]
	maxv := x[0]
	for _, v := range x[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(float64(v - maxv))
		dst[i] = float32(e)
		sum += e
	}
	for i, e := range dst {
		dst[i] = float32(float64(e) / sum)
	}
}

// Argmax returns the index of the largest value in each row of a 2-D
// tensor.
func Argmax(x *Tensor) ([]int, error) {
	if x.Dims() != 2 {
		return nil, fmt.Errorf("%w: argmax needs 2-D input", ErrShape)
	}
	n, c := x.Shape[0], x.Shape[1]
	out := make([]int, n)
	for b := range out {
		out[b] = ArgmaxRow(x.Data[b*c : (b+1)*c])
	}
	return out, nil
}

// ArgmaxRow returns the index of the first largest value of a non-empty
// row.
func ArgmaxRow(row []float32) int {
	bi := 0
	for i, v := range row {
		if v > row[bi] {
			bi = i
		}
	}
	return bi
}

// Flatten reshapes [N, ...] to [N, rest].
func Flatten(x *Tensor) (*Tensor, error) {
	if x.Dims() < 2 {
		return nil, fmt.Errorf("%w: flatten needs >=2 dims", ErrShape)
	}
	rest := 1
	for _, d := range x.Shape[1:] {
		rest *= d
	}
	return x.Reshape(x.Shape[0], rest)
}
