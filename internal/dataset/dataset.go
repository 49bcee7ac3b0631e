// Package dataset provides the inference inputs of the paper's evaluation
// (§V-A2): "a small group of 150 image files which comprise standard
// datasets such as CIFAR10, MNIST, and Hymenoptera". The real files are
// replaced by deterministic synthetic images with the same dimensions and
// channel layouts — inputs only affect payload size and preprocessing in
// this system, never scheduling — plus the preprocessing pipeline that
// resizes/normalizes them into network input tensors.
package dataset

import (
	"fmt"
	"math/rand"

	"gpufaas/internal/tensor"
)

// Kind identifies a source dataset.
type Kind string

// The three datasets of §V-A2.
const (
	MNIST       Kind = "mnist"
	CIFAR10     Kind = "cifar10"
	Hymenoptera Kind = "hymenoptera"
)

// Image is one sample: raw pixel data plus geometry.
type Image struct {
	Dataset  Kind
	Label    int
	Width    int
	Height   int
	Channels int
	// Pixels is HWC uint8 data, len = Width*Height*Channels.
	Pixels []byte
}

// Bytes returns the raw payload size, what an HTTP invocation carries.
func (im Image) Bytes() int { return len(im.Pixels) }

// Spec describes a dataset's geometry.
type Spec struct {
	Kind       Kind
	Width      int
	Height     int
	Channels   int
	NumClasses int
	// Variable marks datasets whose images vary in size (Hymenoptera
	// images range from 50KB to 2MB and "must be compressed before being
	// used in model inference").
	Variable bool
}

// Specs returns the three dataset specs.
func Specs() []Spec {
	return []Spec{
		{Kind: MNIST, Width: 28, Height: 28, Channels: 1, NumClasses: 10},
		{Kind: CIFAR10, Width: 32, Height: 32, Channels: 3, NumClasses: 10},
		{Kind: Hymenoptera, Width: 0, Height: 0, Channels: 3, NumClasses: 2, Variable: true},
	}
}

// SpecFor looks up a dataset spec.
func SpecFor(k Kind) (Spec, error) {
	for _, s := range Specs() {
		if s.Kind == k {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown kind %q", k)
}

// Generate produces n deterministic images from the dataset. Each image's
// content is a class-dependent gradient pattern with pixel noise, so
// different labels produce visibly different tensors (tests rely on
// determinism, examples rely on plausibility).
func Generate(k Kind, n int, seed int64) ([]Image, error) {
	spec, err := SpecFor(k)
	if err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("dataset: negative count %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Image, 0, n)
	for i := 0; i < n; i++ {
		w, h := spec.Width, spec.Height
		if spec.Variable {
			// Hymenoptera-like: random sizes from ~128 to ~640 px.
			w = 128 + rng.Intn(512)
			h = 128 + rng.Intn(512)
		}
		label := rng.Intn(spec.NumClasses)
		img := Image{
			Dataset: k, Label: label, Width: w, Height: h, Channels: spec.Channels,
			Pixels: make([]byte, w*h*spec.Channels),
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				for c := 0; c < spec.Channels; c++ {
					base := (x*13 + y*7 + label*31 + c*17) % 256
					noise := rng.Intn(32)
					img.Pixels[(y*w+x)*spec.Channels+c] = byte((base + noise) % 256)
				}
			}
		}
		out = append(out, img)
	}
	return out, nil
}

// EvalPool reproduces the paper's 150-image evaluation pool: 50 images
// from each of the three datasets.
func EvalPool(seed int64) ([]Image, error) {
	var pool []Image
	for i, k := range []Kind{MNIST, CIFAR10, Hymenoptera} {
		imgs, err := Generate(k, 50, seed+int64(i))
		if err != nil {
			return nil, err
		}
		pool = append(pool, imgs...)
	}
	return pool, nil
}

// ToTensor preprocesses a batch of images into the network input
// [N, 3, size, size]: nearest-neighbour resize (the "compression" step for
// oversized Hymenoptera images), grayscale→RGB channel replication, and
// scaling to [0, 1).
func ToTensor(imgs []Image, size int) (*tensor.Tensor, error) {
	if len(imgs) == 0 {
		return nil, fmt.Errorf("dataset: empty batch")
	}
	if size <= 0 {
		return nil, fmt.Errorf("dataset: non-positive size %d", size)
	}
	out := tensor.MustNew(len(imgs), 3, size, size)
	if err := FillTensor(out.Data, imgs, size); err != nil {
		return nil, err
	}
	return out, nil
}

// FillTensor is ToTensor into memory the caller owns (a pooled input
// buffer): dst must hold len(imgs)*3*size*size floats and is overwritten.
func FillTensor(dst []float32, imgs []Image, size int) error {
	if size <= 0 || len(dst) != len(imgs)*3*size*size {
		return fmt.Errorf("dataset: %d floats for %d images at size %d", len(dst), len(imgs), size)
	}
	for n, im := range imgs {
		if im.Width <= 0 || im.Height <= 0 || im.Channels <= 0 || len(im.Pixels) != im.Width*im.Height*im.Channels {
			return fmt.Errorf("dataset: malformed image %d", n)
		}
		for y := 0; y < size; y++ {
			sy := y * im.Height / size
			for x := 0; x < size; x++ {
				sx := x * im.Width / size
				for c := 0; c < 3; c++ {
					sc := c
					if sc >= im.Channels {
						sc = im.Channels - 1 // replicate gray into RGB
					}
					px := im.Pixels[(sy*im.Width+sx)*im.Channels+sc]
					dst[((n*3+c)*size+y)*size+x] = float32(px) / 256
				}
			}
		}
	}
	return nil
}

// Batch selects a batch of images round-robin from a pool starting at
// offset, wrapping around; it is how the gateway examples draw inputs.
func Batch(pool []Image, offset, n int) ([]Image, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("dataset: empty pool")
	}
	if n <= 0 {
		return nil, fmt.Errorf("dataset: non-positive batch %d", n)
	}
	out := make([]Image, n)
	for i := 0; i < n; i++ {
		out[i] = pool[(offset+i)%len(pool)]
	}
	return out, nil
}
