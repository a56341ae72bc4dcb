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
	// Fully connected weights, row-major: row r of a layer with c inputs is
	// w[r*c : (r+1)*c].
	fc1W []float32 // 120 x 400
	fc1B []float32
	fc2W []float32 // 84 x 120
	fc2B []float32
	fc3W []float32 // 10 x 84
	fc3B []float32

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
	mat := func(rows, cols int) ([]float32, []float32) {
		w := make([]float32, rows*cols)
		for i := range w {
			w[i] = next()
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

// norm maps a pixel to its normalized input, float32(px)/255*2 - 1.
var norm = func() (t [256]float32) {
	for px := range t {
		t[px] = float32(px)/255*2 - 1
	}
	return t
}()

// Infer runs the forward pass on a 28x28 image given as InputBytes bytes
// (row-major, 0..255) and returns the 10 class scores.
//
// Every output element is one float32 sum that starts at its bias and adds
// its taps in a fixed order: kernel row, then kernel column (conv1, whose
// out-of-image taps are skipped, not added as zeros); input channel, kernel
// row, kernel column (conv2); input index (dense layers). The loops keep
// several such sums in flight at once, a row of conv outputs or a group of
// dense rows, so consecutive adds do not wait on each other, but no sum's
// own order changes: the scores are bit-identical to one sum at a time.
func (n *Network) Infer(img []byte) ([NumClasses]float32, error) {
	var out [NumClasses]float32
	if len(img) != InputBytes {
		return out, fmt.Errorf("lenet: input is %d bytes, want %d", len(img), InputBytes)
	}
	var in [InputSize][InputSize]float32
	for i := range in {
		row := (*[InputSize]byte)(img[i*InputSize:])
		for j, px := range row {
			in[i][j] = norm[px]
		}
	}
	// conv1: 5x5, pad 2, stride 1 -> 6 x 28 x 28, ReLU.
	var c1 [6][InputSize][InputSize]float32
	for f := range c1 {
		n.conv1Plane(f, &in, &c1[f])
	}
	// pool1: 2x2 max -> 6 x 14 x 14.
	var p1 [6][14][14]float32
	for f := range p1 {
		for y := 0; y < 14; y++ {
			for x := 0; x < 14; x++ {
				p1[f][y][x] = max4(c1[f][2*y][2*x], c1[f][2*y][2*x+1], c1[f][2*y+1][2*x], c1[f][2*y+1][2*x+1])
			}
		}
	}
	// conv2: 5x5, valid -> 16 x 10 x 10, ReLU.
	var c2 [16][10][10]float32
	for f := range c2 {
		for y := range c2[f] {
			n.conv2Row(f, y, &p1, &c2[f][y])
		}
	}
	// pool2: 2x2 max -> 16 x 5 x 5 = 400, flattened channel-major.
	var flat [400]float32
	idx := 0
	for f := range c2 {
		for y := 0; y < 5; y++ {
			for x := 0; x < 5; x++ {
				flat[idx] = max4(c2[f][2*y][2*x], c2[f][2*y][2*x+1], c2[f][2*y+1][2*x], c2[f][2*y+1][2*x+1])
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

// max4 is the 2x2 max-pool of a, b, c, d, scanned in that order: the first
// of equal maxima wins, as in a row-major scan of the window.
func max4(a, b, c, d float32) float32 {
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	if d > m {
		m = d
	}
	return m
}

// conv1Plane writes filter f's ReLU'd output plane. Interior columns 2..25
// see all five kernel columns and run eight sums at a time; the four edge
// columns run together, each clipping its kernel-column range to the taps
// inside the image. Kernel rows are clipped the same way at the top and
// bottom.
func (n *Network) conv1Plane(f int, in *[InputSize][InputSize]float32, out *[InputSize][InputSize]float32) {
	w := &n.conv1W[f]
	b := n.conv1B[f]
	for y := range out {
		ky0, ky1 := max(0, 2-y), min(5, InputSize+2-y)
		o := &out[y]
		for x0 := 2; x0 < InputSize-2; x0 += 8 {
			s0, s1, s2, s3, s4, s5, s6, s7 := b, b, b, b, b, b, b, b
			for ky := ky0; ky < ky1; ky++ {
				row := &in[y+ky-2]
				for kx, wv := range &w[ky] {
					r := (*[8]float32)(row[x0+kx-2:])
					s0 += wv * r[0]
					s1 += wv * r[1]
					s2 += wv * r[2]
					s3 += wv * r[3]
					s4 += wv * r[4]
					s5 += wv * r[5]
					s6 += wv * r[6]
					s7 += wv * r[7]
				}
			}
			*(*[8]float32)(o[x0:]) = [8]float32{relu(s0), relu(s1), relu(s2), relu(s3), relu(s4), relu(s5), relu(s6), relu(s7)}
		}
		// Edge columns 0, 1, 26 and 27: a tap lands in the image for
		// kx >= 2-x on the left and kx < 30-x on the right.
		e0, e1, e2, e3 := b, b, b, b
		for ky := ky0; ky < ky1; ky++ {
			row := &in[y+ky-2]
			for kx, wv := range &w[ky] {
				if kx >= 2 {
					e0 += wv * row[kx-2]
				}
				if kx >= 1 {
					e1 += wv * row[kx-1]
				}
				if kx <= 3 {
					e2 += wv * row[InputSize-4+kx]
				}
				if kx <= 2 {
					e3 += wv * row[InputSize-3+kx]
				}
			}
		}
		o[0], o[1], o[InputSize-2], o[InputSize-1] = relu(e0), relu(e1), relu(e2), relu(e3)
	}
}

// conv2Row writes row y of filter f's ReLU'd output, its ten sums kept in
// flight together.
func (n *Network) conv2Row(f, y int, p1 *[6][14][14]float32, out *[10]float32) {
	b := n.conv2B[f]
	s0, s1, s2, s3, s4, s5, s6, s7, s8, s9 := b, b, b, b, b, b, b, b, b, b
	for c := range p1 {
		for ky := 0; ky < 5; ky++ {
			row := &p1[c][y+ky]
			for kx, wv := range &n.conv2W[f][c][ky] {
				r := (*[10]float32)(row[kx:])
				s0 += wv * r[0]
				s1 += wv * r[1]
				s2 += wv * r[2]
				s3 += wv * r[3]
				s4 += wv * r[4]
				s5 += wv * r[5]
				s6 += wv * r[6]
				s7 += wv * r[7]
				s8 += wv * r[8]
				s9 += wv * r[9]
			}
		}
	}
	*out = [10]float32{relu(s0), relu(s1), relu(s2), relu(s3), relu(s4), relu(s5), relu(s6), relu(s7), relu(s8), relu(s9)}
}

// dense writes the fully connected layer w·in + b, optionally ReLU'd, into
// out, which has one element per row of w. Four rows are summed at a time.
func dense(w, b, in, out []float32, act bool) {
	cols := len(in)
	r := 0
	for ; r+4 <= len(out); r += 4 {
		w0 := w[r*cols:][:cols]
		w1 := w[(r+1)*cols:][:cols]
		w2 := w[(r+2)*cols:][:cols]
		w3 := w[(r+3)*cols:][:cols]
		s0, s1, s2, s3 := b[r], b[r+1], b[r+2], b[r+3]
		for c, v := range in {
			s0 += w0[c] * v
			s1 += w1[c] * v
			s2 += w2[c] * v
			s3 += w3[c] * v
		}
		if act {
			s0, s1, s2, s3 = relu(s0), relu(s1), relu(s2), relu(s3)
		}
		out[r], out[r+1], out[r+2], out[r+3] = s0, s1, s2, s3
	}
	for ; r < len(out); r++ {
		row := w[r*cols:][:cols]
		sum := b[r]
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
