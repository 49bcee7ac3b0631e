// Package nn builds runnable CNN forward passes for the model zoo's
// architectures. Live-mode FaaS functions execute these networks on real
// image tensors, so the gateway path is exercised end to end with actual
// computation; the simulated experiments use the Table I timing profiles
// instead (the scheduling results depend only on those).
//
// The architectures are faithful-in-structure, scaled-down-in-width
// variants of their namesakes (residual blocks for the ResNet family,
// dense concatenation blocks for DenseNets, fire-style squeeze/expand for
// SqueezeNets, plain deep stacks for VGG/AlexNet, parallel branches for
// Inception). Weights are deterministic pseudo-random: the goal is
// realistic compute and dataflow, not trained accuracy.
//
// A Network is resident the way the paper's cached GPU process is: the
// weights are built once and every forward pass runs inside a pooled
// workspace, so a steady-state Predict allocates only its result. Images
// are independent, so a batch is split by image across up to GOMAXPROCS
// goroutines, each with its own workspace; a batch of one — every gateway
// invoke — runs inline on the caller's goroutine.
package nn

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"

	"gpufaas/internal/tensor"
)

// NumClasses is the output width (CIFAR-10-style tasks).
const NumClasses = 10

// InputSize is the expected spatial input (32x32 RGB).
const InputSize = 32

// act is one image's activation: c planes of h×w (1×1 after a dense
// layer). The data belongs to the workspace that produced it.
type act struct {
	data    []float32
	c, h, w int
}

// workspace holds what one in-flight image needs besides the weights.
// Activations are bump-allocated from arena and all freed at once by
// reset; a request the arena cannot hold goes to the heap and is counted,
// so the first image through a fresh workspace sizes the arena for every
// later one.
type workspace struct {
	arena   []float32
	off     int       // floats handed out since reset, spills included
	scratch []float32 // Conv2DInto's zero-padded input copy
}

func (ws *workspace) alloc(c, h, w int) act {
	lo, n := ws.off, c*h*w
	ws.off += n
	if ws.off > len(ws.arena) {
		return act{make([]float32, n), c, h, w}
	}
	return act{ws.arena[lo:ws.off:ws.off], c, h, w}
}

func (ws *workspace) reset() {
	if ws.off > len(ws.arena) {
		ws.arena = make([]float32, ws.off)
	}
	ws.off = 0
}

// Layer is one step of a forward pass.
type Layer interface {
	// forward consumes one image's activation and returns the next,
	// allocated from ws.
	forward(ws *workspace, x act) (act, error)
	// Params returns the number of learnable parameters.
	Params() int64
	// Name identifies the layer for inspection.
	Name() string
}

// Network is an executable sequence of layers. It is safe for concurrent
// use and must not be copied.
type Network struct {
	Arch       string
	Layers     []Layer
	workspaces sync.Pool // *workspace
}

// Forward runs the network on a [N,3,32,32] input, returning logits
// [N, NumClasses].
func (n *Network) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	logits, _, err := n.run(x, false)
	return logits, err
}

// Predict runs Forward then softmax+argmax, returning the class per input.
func (n *Network) Predict(x *tensor.Tensor) ([]int, error) {
	_, classes, err := n.run(x, true)
	return classes, err
}

// run pushes every image of x through the layers and returns the logits
// or, if predict is set, the classes instead.
func (n *Network) run(x *tensor.Tensor, predict bool) (logits *tensor.Tensor, classes []int, err error) {
	if x.Dims() != 4 || x.Shape[1] != 3 || x.Shape[2] != InputSize || x.Shape[3] != InputSize {
		return nil, nil, fmt.Errorf("nn: input must be [N,3,%d,%d], got %v", InputSize, InputSize, x.Shape)
	}
	batch := x.Shape[0]
	var out []float32
	if predict {
		classes = make([]int, batch)
	} else {
		logits = tensor.MustNew(batch, NumClasses)
		out = logits.Data
	}
	if err := n.runBatch(x.Data, batch, out, classes); err != nil {
		return nil, nil, err
	}
	return logits, classes, nil
}

// runBatch splits the batch by image over up to GOMAXPROCS goroutines; a
// single image runs inline, with no fork to pay for.
func (n *Network) runBatch(data []float32, batch int, logits []float32, classes []int) error {
	workers := min(runtime.GOMAXPROCS(0), batch)
	if workers <= 1 {
		return n.runImages(data, 0, batch, logits, classes)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = n.runImages(data, w*batch/workers, (w+1)*batch/workers, logits, classes)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runImages runs images [lo, hi) on the calling goroutine and stores image
// i's logits in logits[i*NumClasses:] or, when classes is non-nil, its
// class in classes[i]. Its workspace goes back to the pool before it
// returns: only those copied-out results outlive the call.
func (n *Network) runImages(data []float32, lo, hi int, logits []float32, classes []int) error {
	ws, _ := n.workspaces.Get().(*workspace)
	if ws == nil {
		ws = new(workspace)
	}
	defer func() {
		ws.reset()
		n.workspaces.Put(ws)
	}()
	const in = 3 * InputSize * InputSize
	for i := lo; i < hi; i++ {
		ws.reset()
		a := act{data[i*in : (i+1)*in], 3, InputSize, InputSize}
		for _, l := range n.Layers {
			var err error
			if a, err = l.forward(ws, a); err != nil {
				return fmt.Errorf("nn: %s/%s: %w", n.Arch, l.Name(), err)
			}
		}
		if len(a.data) != NumClasses {
			return fmt.Errorf("nn: %s ends in %d outputs, want %d", n.Arch, len(a.data), NumClasses)
		}
		if classes == nil {
			copy(logits[i*NumClasses:], a.data)
			continue
		}
		probs := ws.alloc(NumClasses, 1, 1).data
		tensor.SoftmaxInto(probs, a.data)
		classes[i] = tensor.ArgmaxRow(probs)
	}
	return nil
}

// Params returns the total learnable parameter count.
func (n *Network) Params() int64 {
	var total int64
	for _, l := range n.Layers {
		total += l.Params()
	}
	return total
}

// ---- concrete layers ----

type convLayer struct {
	name       string
	w, b       *tensor.Tensor
	stride     int
	pad        int
	relu       bool
	paramCount int64
}

func newConv(name string, rng *rand.Rand, cin, cout, k, stride, pad int, relu bool) *convLayer {
	w := tensor.MustNew(cout, cin, k, k)
	w.FillRandom(rng, 0.35/float64(k)) // keep activations bounded through depth
	b := tensor.MustNew(cout)
	return &convLayer{
		name: name, w: w, b: b, stride: stride, pad: pad, relu: relu,
		paramCount: int64(cout*cin*k*k + cout),
	}
}

func (l *convLayer) cout() int { return l.w.Shape[0] }

func (l *convLayer) forward(ws *workspace, x act) (act, error) {
	ho, wo, err := tensor.OutHW(x.h, x.w, l.w.Shape[2], l.w.Shape[3], l.stride, l.pad)
	if err != nil {
		return act{}, err
	}
	y := ws.alloc(l.cout(), ho, wo)
	return y, l.into(ws, y.data, x)
}

// into runs the layer on x into dst, which must have the output's size.
func (l *convLayer) into(ws *workspace, dst []float32, x act) error {
	if err := tensor.Conv2DInto(dst, x.data, x.h, x.w, l.w, l.b, l.stride, l.pad, &ws.scratch); err != nil {
		return err
	}
	if l.relu {
		tensor.ReLUSlice(dst)
	}
	return nil
}
func (l *convLayer) Params() int64 { return l.paramCount }
func (l *convLayer) Name() string  { return l.name }

type poolLayer struct {
	name      string
	k, stride int
}

func (l *poolLayer) forward(ws *workspace, x act) (act, error) {
	ho, wo, err := tensor.OutHW(x.h, x.w, l.k, l.k, l.stride, 0)
	if err != nil {
		return act{}, err
	}
	y := ws.alloc(x.c, ho, wo)
	return y, tensor.MaxPool2DInto(y.data, x.data, x.h, x.w, l.k, l.stride)
}
func (l *poolLayer) Params() int64 { return 0 }
func (l *poolLayer) Name() string  { return l.name }

type gapLayer struct{}

func (gapLayer) forward(ws *workspace, x act) (act, error) {
	y := ws.alloc(x.c, 1, 1)
	tensor.GlobalAvgPoolInto(y.data, x.data)
	return y, nil
}
func (gapLayer) Params() int64 { return 0 }
func (gapLayer) Name() string  { return "gap" }

type denseLayer struct {
	name       string
	w, b       *tensor.Tensor
	relu       bool
	paramCount int64
}

func newDense(name string, rng *rand.Rand, in, out int, relu bool) *denseLayer {
	w := tensor.MustNew(out, in)
	w.FillRandom(rng, 0.2)
	b := tensor.MustNew(out)
	return &denseLayer{name: name, w: w, b: b, relu: relu, paramCount: int64(out*in + out)}
}

// forward flattens whatever it is given: one image's activation is
// already a single row.
func (l *denseLayer) forward(ws *workspace, x act) (act, error) {
	y := ws.alloc(l.w.Shape[0], 1, 1)
	if err := tensor.DenseInto(y.data, x.data, l.w, l.b); err != nil {
		return act{}, err
	}
	if l.relu {
		tensor.ReLUSlice(y.data)
	}
	return y, nil
}
func (l *denseLayer) Params() int64 { return l.paramCount }
func (l *denseLayer) Name() string  { return l.name }

// residualBlock is conv-conv plus identity skip (ResNet family).
type residualBlock struct {
	name   string
	c1, c2 *convLayer
}

func newResidual(name string, rng *rand.Rand, channels int) *residualBlock {
	return &residualBlock{
		name: name,
		c1:   newConv(name+".c1", rng, channels, channels, 3, 1, 1, true),
		c2:   newConv(name+".c2", rng, channels, channels, 3, 1, 1, false),
	}
}

func (l *residualBlock) forward(ws *workspace, x act) (act, error) {
	y, err := l.c1.forward(ws, x)
	if err != nil {
		return act{}, err
	}
	if y, err = l.c2.forward(ws, y); err != nil {
		return act{}, err
	}
	if len(y.data) != len(x.data) {
		return act{}, fmt.Errorf("%w: add %d to %d floats", tensor.ErrShape, len(x.data), len(y.data))
	}
	// The skip add and the ReLU after it, in one pass over c2's output.
	for i, v := range x.data {
		if v += y.data[i]; v < 0 {
			v = 0
		}
		y.data[i] = v
	}
	return y, nil
}
func (l *residualBlock) Params() int64 { return l.c1.Params() + l.c2.Params() }
func (l *residualBlock) Name() string  { return l.name }

// branches runs a and b on x and returns their outputs stacked as the
// channels of one activation. One image's planes are contiguous, so
// concatenating is telling each conv where to write.
func branches(ws *workspace, x act, a, b *convLayer) (act, error) {
	split := a.cout() * x.h * x.w
	out := ws.alloc(a.cout()+b.cout(), x.h, x.w)
	if err := a.into(ws, out.data[:split], x); err != nil {
		return act{}, err
	}
	return out, b.into(ws, out.data[split:], x)
}

// denseBlock concatenates each conv's output onto its input (DenseNet).
type denseBlock struct {
	name  string
	convs []*convLayer
}

func newDenseBlock(name string, rng *rand.Rand, cin, growth, n int) *denseBlock {
	b := &denseBlock{name: name}
	c := cin
	for i := 0; i < n; i++ {
		b.convs = append(b.convs, newConv(fmt.Sprintf("%s.c%d", name, i), rng, c, growth, 3, 1, 1, true))
		c += growth
	}
	return b
}

func (l *denseBlock) forward(ws *workspace, x act) (act, error) {
	c, hw := x.c, x.h*x.w
	for _, cv := range l.convs {
		c += cv.cout()
	}
	out := ws.alloc(c, x.h, x.w)
	copy(out.data, x.data)
	c = x.c
	for _, cv := range l.convs {
		// Reads every channel stacked so far, appends its own.
		in := act{out.data[:c*hw], c, x.h, x.w}
		if err := cv.into(ws, out.data[c*hw:(c+cv.cout())*hw], in); err != nil {
			return act{}, err
		}
		c += cv.cout()
	}
	return out, nil
}
func (l *denseBlock) Params() int64 {
	var t int64
	for _, c := range l.convs {
		t += c.Params()
	}
	return t
}
func (l *denseBlock) Name() string { return l.name }

// fireBlock is SqueezeNet's squeeze (1x1) then expand (1x1 || 3x3).
type fireBlock struct {
	name            string
	squeeze, e1, e3 *convLayer
}

func newFire(name string, rng *rand.Rand, cin, squeeze, expand int) *fireBlock {
	return &fireBlock{
		name:    name,
		squeeze: newConv(name+".squeeze", rng, cin, squeeze, 1, 1, 0, true),
		e1:      newConv(name+".expand1", rng, squeeze, expand, 1, 1, 0, true),
		e3:      newConv(name+".expand3", rng, squeeze, expand, 3, 1, 1, true),
	}
}

func (l *fireBlock) forward(ws *workspace, x act) (act, error) {
	s, err := l.squeeze.forward(ws, x)
	if err != nil {
		return act{}, err
	}
	return branches(ws, s, l.e1, l.e3)
}
func (l *fireBlock) Params() int64 { return l.squeeze.Params() + l.e1.Params() + l.e3.Params() }
func (l *fireBlock) Name() string  { return l.name }

// inceptionBlock runs parallel 1x1 and 3x3 branches and concatenates.
type inceptionBlock struct {
	name   string
	b1, b3 *convLayer
}

func newInception(name string, rng *rand.Rand, cin, per int) *inceptionBlock {
	return &inceptionBlock{
		name: name,
		b1:   newConv(name+".b1", rng, cin, per, 1, 1, 0, true),
		b3:   newConv(name+".b3", rng, cin, per, 3, 1, 1, true),
	}
}

func (l *inceptionBlock) forward(ws *workspace, x act) (act, error) {
	return branches(ws, x, l.b1, l.b3)
}
func (l *inceptionBlock) Params() int64 { return l.b1.Params() + l.b3.Params() }
func (l *inceptionBlock) Name() string  { return l.name }

// ---- architecture builder ----

// BaseArch strips a per-function instance suffix ("resnet18@f07" ->
// "resnet18").
func BaseArch(model string) string {
	if i := strings.IndexByte(model, '@'); i >= 0 {
		return model[:i]
	}
	return model
}

// ErrUnknownArch is returned for model names outside the zoo's families.
var ErrUnknownArch = errors.New("nn: unknown architecture")

// Build constructs the network for a zoo model name (instance suffixes
// allowed). The seed makes weights deterministic per instance.
func Build(model string, seed int64) (*Network, error) {
	arch := BaseArch(model)
	rng := rand.New(rand.NewSource(seed))
	net := &Network{Arch: arch}
	add := func(ls ...Layer) {
		net.Layers = append(net.Layers, ls...)
	}

	switch {
	case strings.HasPrefix(arch, "squeezenet"):
		add(newConv("stem", rng, 3, 16, 3, 2, 1, true)) // 16x16
		add(newFire("fire1", rng, 16, 4, 8))            // 16ch
		add(&poolLayer{"pool1", 2, 2})                  // 8x8
		add(newFire("fire2", rng, 16, 8, 16))           // 32ch
		add(gapLayer{})
		add(newDense("fc", rng, 32, NumClasses, false))

	case arch == "alexnet":
		add(newConv("c1", rng, 3, 24, 5, 2, 2, true)) // 16x16
		add(&poolLayer{"p1", 2, 2})                   // 8x8
		add(newConv("c2", rng, 24, 48, 3, 1, 1, true))
		add(newConv("c3", rng, 48, 48, 3, 1, 1, true))
		add(&poolLayer{"p2", 2, 2}) // 4x4
		add(newDense("fc1", rng, 48*4*4, 128, true))
		add(newDense("fc2", rng, 128, NumClasses, false))

	case strings.HasPrefix(arch, "vgg"):
		depth := vggDepth(arch)
		add(newConv("stem", rng, 3, 16, 3, 1, 1, true))
		add(&poolLayer{"p0", 2, 2}) // 16x16
		c := 16
		for i := 0; i < depth; i++ {
			add(newConv(fmt.Sprintf("c%d", i+1), rng, c, 32, 3, 1, 1, true))
			c = 32
			if i == depth/2 {
				add(&poolLayer{fmt.Sprintf("p%d", i+1), 2, 2}) // 8x8
			}
		}
		add(&poolLayer{"pend", 2, 2}) // 4x4
		add(newDense("fc1", rng, 32*4*4, 128, true))
		add(newDense("fc2", rng, 128, NumClasses, false))

	case strings.HasPrefix(arch, "resnet"), strings.HasPrefix(arch, "resnext"),
		strings.HasPrefix(arch, "wideresnet"):
		blocks, width := resnetShape(arch)
		add(newConv("stem", rng, 3, width, 3, 1, 1, true))
		add(&poolLayer{"p0", 2, 2}) // 16x16
		for i := 0; i < blocks; i++ {
			add(newResidual(fmt.Sprintf("res%d", i+1), rng, width))
			if i == blocks/2 {
				add(&poolLayer{fmt.Sprintf("p%d", i+1), 2, 2}) // 8x8
			}
		}
		add(gapLayer{})
		add(newDense("fc", rng, width, NumClasses, false))

	case strings.HasPrefix(arch, "densenet"):
		n := densenetShape(arch)
		add(newConv("stem", rng, 3, 16, 3, 2, 1, true)) // 16x16
		add(newDenseBlock("dense1", rng, 16, 8, n))
		add(&poolLayer{"p1", 2, 2}) // 8x8
		c := 16 + 8*n
		add(newDenseBlock("dense2", rng, c, 8, 2))
		add(gapLayer{})
		add(newDense("fc", rng, c+16, NumClasses, false))

	case strings.HasPrefix(arch, "inception"):
		add(newConv("stem", rng, 3, 16, 3, 2, 1, true)) // 16x16
		add(newInception("inc1", rng, 16, 12))          // 24ch
		add(&poolLayer{"p1", 2, 2})                     // 8x8
		add(newInception("inc2", rng, 24, 16))          // 32ch
		add(gapLayer{})
		add(newDense("fc", rng, 32, NumClasses, false))

	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownArch, model)
	}
	return net, nil
}

// vggDepth maps the VGG variant to a (scaled) conv-stack depth.
func vggDepth(arch string) int {
	switch {
	case strings.HasPrefix(arch, "vgg19"):
		return 8
	case strings.HasPrefix(arch, "vgg16"):
		return 7
	case strings.HasPrefix(arch, "vgg13"):
		return 6
	default: // vgg11
		return 5
	}
}

// resnetShape maps a ResNet-family variant to (blocks, width).
func resnetShape(arch string) (blocks, width int) {
	switch {
	case strings.HasPrefix(arch, "wideresnet101"):
		return 6, 32
	case strings.HasPrefix(arch, "wideresnet"):
		return 4, 32
	case strings.HasPrefix(arch, "resnext101"):
		return 6, 24
	case strings.HasPrefix(arch, "resnext"):
		return 4, 24
	case arch == "resnet152":
		return 8, 16
	case arch == "resnet101":
		return 7, 16
	case arch == "resnet50":
		return 6, 16
	case arch == "resnet34":
		return 4, 16
	default: // resnet18
		return 3, 16
	}
}

// densenetShape maps a DenseNet variant to its first block's depth.
func densenetShape(arch string) int {
	switch arch {
	case "densenet201":
		return 5
	case "densenet169":
		return 4
	case "densenet161":
		return 4
	default: // densenet121
		return 3
	}
}
