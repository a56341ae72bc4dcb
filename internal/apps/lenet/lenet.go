// Package lenet implements the LeNet-5 convolutional network forward pass
// used by the paper's model-serving server (§6.3): 28x28 grayscale digits in,
// 10 class scores out. The network is executed for real (float32 arithmetic
// in Go standing in for the TVM-generated GPU kernels), so the simulated
// service computes genuine answers; the *time* a request occupies the GPU is
// taken from the calibrated model (LeNetServiceK40/K80).
//
// Weights are deterministic pseudo-random (the paper's accuracy is not under
// test — its serving architecture is), so every simulation run classifies
// identically.
package lenet

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sync"
)

// Input geometry (MNIST).
const (
	InputSize  = 28
	InputBytes = InputSize * InputSize
	NumClasses = 10
)

// memoCap bounds the number of images a Network's Classify memo holds. The
// served workloads repeat a few hundred images at most; the cap keeps a
// stream of distinct images from growing the memo without limit.
const memoCap = 4096

// Network holds the LeNet-5 parameters.
type Network struct {
	conv1W [6][5][5]float32 // 6 filters over 1 input channel
	conv1B [6]float32
	conv2W [16][6][5][5]float32
	conv2B [16]float32
	fc1W   [][]float32 // 120 x 400
	fc1B   []float32
	fc2W   [][]float32 // 84 x 120
	fc2B   []float32
	fc3W   [][]float32 // 10 x 84
	fc3B   []float32

	// memo maps the SHA-256 digest of an image to its class. The weights
	// never change after New, so an entry never goes stale. Digests, not
	// images, are the keys, so an entry costs 33 bytes rather than 785.
	mu   sync.Mutex
	memo map[[sha256.Size]byte]uint8
}

// New builds a network with deterministic pseudo-random weights derived from
// seed.
func New(seed uint64) *Network {
	rng := seed ^ 0x9E3779B97F4A7C15
	if rng == 0 {
		rng = 1
	}
	next := func() float32 {
		// xorshift64*; scaled to a small symmetric range.
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		v := rng * 0x2545F4914F6CDD1D
		return (float32(v>>40)/float32(1<<24) - 0.5) * 0.25
	}
	n := &Network{memo: make(map[[sha256.Size]byte]uint8)}
	for f := 0; f < 6; f++ {
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				n.conv1W[f][i][j] = next()
			}
		}
		n.conv1B[f] = next()
	}
	for f := 0; f < 16; f++ {
		for c := 0; c < 6; c++ {
			for i := 0; i < 5; i++ {
				for j := 0; j < 5; j++ {
					n.conv2W[f][c][i][j] = next()
				}
			}
		}
		n.conv2B[f] = next()
	}
	mat := func(rows, cols int) ([][]float32, []float32) {
		w := make([][]float32, rows)
		for r := range w {
			w[r] = make([]float32, cols)
			for c := range w[r] {
				w[r][c] = next()
			}
		}
		b := make([]float32, rows)
		for r := range b {
			b[r] = next()
		}
		return w, b
	}
	n.fc1W, n.fc1B = mat(120, 400)
	n.fc2W, n.fc2B = mat(84, 120)
	n.fc3W, n.fc3B = mat(10, 84)
	return n
}

func relu(x float32) float32 {
	if x < 0 {
		return 0
	}
	return x
}

// Infer runs the forward pass on a 28x28 image given as InputBytes bytes
// (row-major, 0..255) and returns the 10 class scores.
func (n *Network) Infer(img []byte) ([NumClasses]float32, error) {
	var out [NumClasses]float32
	if len(img) != InputBytes {
		return out, fmt.Errorf("lenet: input is %d bytes, want %d", len(img), InputBytes)
	}
	// Normalize.
	var in [InputSize][InputSize]float32
	for i := 0; i < InputSize; i++ {
		for j := 0; j < InputSize; j++ {
			in[i][j] = float32(img[i*InputSize+j])/255*2 - 1
		}
	}
	// conv1: 5x5, pad 2, stride 1 -> 6 x 28 x 28, ReLU.
	var c1 [6][InputSize][InputSize]float32
	for f := 0; f < 6; f++ {
		for y := 0; y < InputSize; y++ {
			for x := 0; x < InputSize; x++ {
				sum := n.conv1B[f]
				for ky := 0; ky < 5; ky++ {
					for kx := 0; kx < 5; kx++ {
						iy, ix := y+ky-2, x+kx-2
						if iy < 0 || iy >= InputSize || ix < 0 || ix >= InputSize {
							continue
						}
						sum += n.conv1W[f][ky][kx] * in[iy][ix]
					}
				}
				c1[f][y][x] = relu(sum)
			}
		}
	}
	// pool1: 2x2 max -> 6 x 14 x 14.
	var p1 [6][14][14]float32
	for f := 0; f < 6; f++ {
		for y := 0; y < 14; y++ {
			for x := 0; x < 14; x++ {
				m := c1[f][2*y][2*x]
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						if v := c1[f][2*y+dy][2*x+dx]; v > m {
							m = v
						}
					}
				}
				p1[f][y][x] = m
			}
		}
	}
	// conv2: 5x5, valid -> 16 x 10 x 10, ReLU.
	var c2 [16][10][10]float32
	for f := 0; f < 16; f++ {
		for y := 0; y < 10; y++ {
			for x := 0; x < 10; x++ {
				sum := n.conv2B[f]
				for c := 0; c < 6; c++ {
					for ky := 0; ky < 5; ky++ {
						for kx := 0; kx < 5; kx++ {
							sum += n.conv2W[f][c][ky][kx] * p1[c][y+ky][x+kx]
						}
					}
				}
				c2[f][y][x] = relu(sum)
			}
		}
	}
	// pool2: 2x2 max -> 16 x 5 x 5 = 400, flattened channel-major.
	var flat [400]float32
	idx := 0
	for f := 0; f < 16; f++ {
		for y := 0; y < 5; y++ {
			for x := 0; x < 5; x++ {
				m := c2[f][2*y][2*x]
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						if v := c2[f][2*y+dy][2*x+dx]; v > m {
							m = v
						}
					}
				}
				flat[idx] = m
				idx++
			}
		}
	}
	// fc1 -> ReLU -> fc2 -> ReLU -> fc3.
	var h1 [120]float32
	var h2 [84]float32
	dense(n.fc1W, n.fc1B, flat[:], h1[:], true)
	dense(n.fc2W, n.fc2B, h1[:], h2[:], true)
	dense(n.fc3W, n.fc3B, h2[:], out[:], false)
	return out, nil
}

// dense writes the fully connected layer w·in + b, optionally ReLU'd, into
// out, which has one element per row of w.
func dense(w [][]float32, b, in, out []float32, act bool) {
	for r := range w {
		sum := b[r]
		row := w[r]
		for c, v := range in {
			sum += row[c] * v
		}
		if act {
			sum = relu(sum)
		}
		out[r] = sum
	}
}

// Classify returns the argmax class for the image. Answers are memoized per
// Network by image digest, so a repeated image costs a hash and a lookup
// instead of a forward pass. Errors are never memoized. Classify is safe for
// concurrent use.
func (n *Network) Classify(img []byte) (int, error) {
	key := sha256.Sum256(img)
	n.mu.Lock()
	cls, ok := n.memo[key]
	n.mu.Unlock()
	if ok {
		return int(cls), nil
	}
	scores, err := n.Infer(img)
	if err != nil {
		return 0, err
	}
	best := argmax(scores)
	n.mu.Lock()
	if len(n.memo) < memoCap {
		n.memo[key] = uint8(best)
	}
	n.mu.Unlock()
	return best, nil
}

// argmax returns the index of the highest score, the first one on ties.
func argmax(scores [NumClasses]float32) int {
	best, bestV := 0, float32(math.Inf(-1))
	for i, v := range scores {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Synthetic MNIST-shaped inputs

// digitFont is a 5x7 bitmap font for digits 0-9, used to render MNIST-like
// test images without shipping the dataset.
var digitFont = [10][7]uint8{
	{0b01110, 0b10001, 0b10011, 0b10101, 0b11001, 0b10001, 0b01110}, // 0
	{0b00100, 0b01100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110}, // 1
	{0b01110, 0b10001, 0b00001, 0b00110, 0b01000, 0b10000, 0b11111}, // 2
	{0b01110, 0b10001, 0b00001, 0b00110, 0b00001, 0b10001, 0b01110}, // 3
	{0b00010, 0b00110, 0b01010, 0b10010, 0b11111, 0b00010, 0b00010}, // 4
	{0b11111, 0b10000, 0b11110, 0b00001, 0b00001, 0b10001, 0b01110}, // 5
	{0b00110, 0b01000, 0b10000, 0b11110, 0b10001, 0b10001, 0b01110}, // 6
	{0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b01000, 0b01000}, // 7
	{0b01110, 0b10001, 0b10001, 0b01110, 0b10001, 0b10001, 0b01110}, // 8
	{0b01110, 0b10001, 0b10001, 0b01111, 0b00001, 0b00010, 0b01100}, // 9
}

// RenderDigit draws digit d (0-9) as a 28x28 grayscale image, offset by
// (dx, dy) pixels for variety. Pixels are 0 or 255 with a soft border.
func RenderDigit(d, dx, dy int) []byte {
	if d < 0 || d > 9 {
		d = ((d % 10) + 10) % 10
	}
	img := make([]byte, InputBytes)
	const scale = 3 // 5x7 font -> 15x21 glyph, centered in 28x28
	baseX, baseY := (InputSize-5*scale)/2+dx, (InputSize-7*scale)/2+dy
	for row := 0; row < 7; row++ {
		bits := digitFont[d][row]
		for col := 0; col < 5; col++ {
			if bits&(1<<(4-col)) == 0 {
				continue
			}
			for sy := 0; sy < scale; sy++ {
				for sx := 0; sx < scale; sx++ {
					y, x := baseY+row*scale+sy, baseX+col*scale+sx
					if y >= 0 && y < InputSize && x >= 0 && x < InputSize {
						img[y*InputSize+x] = 255
					}
				}
			}
		}
	}
	return img
}

// ---------------------------------------------------------------------------
// Reference implementation (for equivalence testing)
