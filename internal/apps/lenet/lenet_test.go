package lenet

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestInferShapeAndDeterminism(t *testing.T) {
	n := New(1)
	img := RenderDigit(3, 0, 0)
	a, err := n.Infer(img)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Infer(img)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("inference must be deterministic")
	}
	anyNonZero := false
	for _, v := range a {
		if v != 0 {
			anyNonZero = true
		}
	}
	if !anyNonZero {
		t.Fatal("all-zero scores: network is degenerate")
	}
}

func TestInferRejectsBadInput(t *testing.T) {
	n := New(1)
	if _, err := n.Infer(make([]byte, 100)); err == nil {
		t.Fatal("short input must fail")
	}
	if _, err := n.Classify(make([]byte, InputBytes+1)); err == nil {
		t.Fatal("long input must fail")
	}
}

func TestSameSeedSameNetwork(t *testing.T) {
	img := RenderDigit(7, 1, -1)
	a, _ := New(42).Infer(img)
	b, _ := New(42).Infer(img)
	if a != b {
		t.Fatal("same seed must build identical networks")
	}
	c, _ := New(43).Infer(img)
	if a == c {
		t.Fatal("different seeds should give different networks")
	}
}

func TestClassifyInRange(t *testing.T) {
	n := New(5)
	for d := 0; d < 10; d++ {
		cls, err := n.Classify(RenderDigit(d, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if cls < 0 || cls >= NumClasses {
			t.Fatalf("class %d out of range", cls)
		}
	}
}

func TestDistinctDigitsDistinctScores(t *testing.T) {
	n := New(5)
	s0, _ := n.Infer(RenderDigit(0, 0, 0))
	s1, _ := n.Infer(RenderDigit(1, 0, 0))
	if s0 == s1 {
		t.Fatal("different images must yield different score vectors")
	}
}

func TestRenderDigit(t *testing.T) {
	img := RenderDigit(8, 0, 0)
	if len(img) != InputBytes {
		t.Fatalf("image size %d", len(img))
	}
	on := 0
	for _, px := range img {
		if px == 255 {
			on++
		} else if px != 0 {
			t.Fatal("pixels must be 0 or 255")
		}
	}
	if on < 50 || on > 400 {
		t.Fatalf("glyph coverage %d pixels, implausible", on)
	}
	// Out-of-range digits wrap instead of panicking.
	if !bytes.Equal(RenderDigit(13, 0, 0), RenderDigit(3, 0, 0)) {
		t.Fatal("digit 13 should render like 3")
	}
	if !bytes.Equal(RenderDigit(-3, 0, 0), RenderDigit(7, 0, 0)) {
		t.Fatal("digit -3 should render like 7")
	}
	// Offsets translate the glyph.
	if bytes.Equal(RenderDigit(8, 0, 0), RenderDigit(8, 3, 0)) {
		t.Fatal("offset rendering must move pixels")
	}
}

// Property: shifting a glyph within the frame keeps the output finite and
// the class within range (robustness of the numeric pipeline).
func TestInferTotalProperty(t *testing.T) {
	n := New(9)
	prop := func(d, dx, dy int8) bool {
		img := RenderDigit(int(d), int(dx)%6, int(dy)%6)
		scores, err := n.Infer(img)
		if err != nil {
			return false
		}
		for _, v := range scores {
			if v != v { // NaN
				return false
			}
			if v > 1e6 || v < -1e6 {
				return false
			}
		}
		cls, err := n.Classify(img)
		return err == nil && cls >= 0 && cls < NumClasses
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the forward pass agrees with the naive reference implementation
// to within 1e-3. The reference is an independent formulation: its conv1 adds
// the padded zeros that Infer skips, so the check is a tolerance, not bits
// (TestInferBitsMatchStraightLine checks the bits).
func TestInferMatchesReferenceProperty(t *testing.T) {
	n := New(77)
	prop := func(d int8, dx, dy int8, noise uint8) bool {
		img := RenderDigit(int(d), int(dx)%4, int(dy)%4)
		// Perturb some pixels for input diversity.
		for i := 0; i < int(noise); i++ {
			img[(i*131)%len(img)] ^= 0x55
		}
		a, err1 := n.Infer(img)
		b, err2 := n.InferReference(img)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range a {
			diff := a[i] - b[i]
			if diff < -1e-3 || diff > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestInferReferenceRejectsBadInput(t *testing.T) {
	if _, err := New(1).InferReference(make([]byte, 5)); err == nil {
		t.Fatal("short input must fail")
	}
}

// gridImages returns RenderDigit's 10 digit × 5 × 5 shift grid.
func gridImages() [][]byte {
	var imgs [][]byte
	for d := 0; d < 10; d++ {
		for dx := -2; dx <= 2; dx++ {
			for dy := -2; dy <= 2; dy++ {
				imgs = append(imgs, RenderDigit(d, dx, dy))
			}
		}
	}
	return imgs
}

// distinctImage returns a grid image whose first pixels encode i, so every i
// gives a different image.
func distinctImage(i int) []byte {
	img := RenderDigit(i%10, i%5-2, i/5%5-2)
	for b := 0; b < 4; b++ {
		img[b] = byte(i >> (8 * b))
	}
	return img
}

func memoLen(n *Network) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.memo)
}

func uncachedClass(t *testing.T, n *Network, img []byte) int {
	t.Helper()
	scores, err := n.Infer(img)
	if err != nil {
		t.Fatal(err)
	}
	return argmax(scores)
}

// Property: a memo hit answers exactly what an uncached forward pass does,
// for every grid image and for noised variants of it.
func TestClassifyMemoMatchesInfer(t *testing.T) {
	n := New(42)
	imgs := gridImages()
	for i, grid := 0, len(imgs); i < grid; i += 5 {
		noised := bytes.Clone(imgs[i])
		for p := 0; p < 1+i%40; p++ {
			noised[(p*131+i*17)%len(noised)] ^= 0x55
		}
		imgs = append(imgs, noised)
	}
	want := make([]int, len(imgs))
	for i, img := range imgs {
		want[i] = uncachedClass(t, n, img)
	}
	for pass := 0; pass < 2; pass++ { // pass 0 fills the memo, pass 1 hits it
		for i, img := range imgs {
			got, err := n.Classify(img)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i] {
				t.Fatalf("pass %d, image %d: Classify %d, uncached argmax %d", pass, i, got, want[i])
			}
		}
	}
	if got := memoLen(n); got != len(imgs) {
		t.Fatalf("memo holds %d entries for %d distinct images", got, len(imgs))
	}
}

func TestClassifyErrorsAreNotMemoized(t *testing.T) {
	n := New(1)
	for _, size := range []int{0, InputBytes - 1, InputBytes + 1} {
		for call := 0; call < 3; call++ {
			if _, err := n.Classify(make([]byte, size)); err == nil {
				t.Fatalf("%d-byte input, call %d: want an error", size, call)
			}
		}
	}
	if got := memoLen(n); got != 0 {
		t.Fatalf("memo holds %d entries after only bad inputs", got)
	}
}

// The memo stops growing at memoCap and keeps answering correctly past it.
// It is filled with synthetic digests up to a few entries short of the cap,
// so the cap is crossed by real inputs without memoCap forward passes.
func TestClassifyMemoBounded(t *testing.T) {
	const short, extra = 3, 5
	n := New(7)
	for i := 0; len(n.memo) < memoCap-short; i++ {
		n.memo[sha256.Sum256([]byte{byte(i), byte(i >> 8), 0xfe})] = 0
	}
	for i := 0; i < short+extra; i++ {
		img := distinctImage(i)
		want := uncachedClass(t, n, img)
		for call := 0; call < 2; call++ {
			got, err := n.Classify(img)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("input %d, call %d: Classify %d, uncached argmax %d", i, call, got, want)
			}
		}
		_, memoized := n.memo[sha256.Sum256(img)]
		if memoized != (i < short) {
			t.Fatalf("input %d: memoized = %v with the cap at %d", i, memoized, memoCap)
		}
	}
	if got := memoLen(n); got != memoCap {
		t.Fatalf("memo holds %d entries, want %d", got, memoCap)
	}
}

// Concurrent callers sharing one Network, as experiment sweep workers do,
// get the same answers as a sequential uncached pass.
func TestClassifyConcurrent(t *testing.T) {
	const workers, images = 8, 50
	n := New(42)
	imgs := gridImages()[:images]
	want := make([]int, images)
	for i, img := range imgs {
		want[i] = uncachedClass(t, n, img)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 2*images; k++ {
				i := (k*7 + w*13) % images
				got, err := n.Classify(imgs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[i] {
					t.Errorf("worker %d, image %d: Classify %d, want %d", w, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := memoLen(n); got != images {
		t.Fatalf("memo holds %d entries for %d distinct images", got, images)
	}
}

func TestClassifyHitAndInferMissAllocateNothing(t *testing.T) {
	n := New(3)
	img := RenderDigit(4, 1, 0)
	if _, err := n.Classify(img); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { _, _ = n.Classify(img) }); a != 0 {
		t.Errorf("Classify hit: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { _, _ = n.Infer(img) }); a != 0 {
		t.Errorf("Infer: %v allocs/op, want 0", a)
	}
}

var sinkClass int

// BenchmarkClassify times a memo hit (one grid image over and over) and a
// miss (a different image every iteration).
func BenchmarkClassify(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		n := New(42)
		img := RenderDigit(3, 0, 0)
		if _, err := n.Classify(img); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkClass, _ = n.Classify(img)
		}
	})
	b.Run("miss", func(b *testing.B) {
		n := New(42)
		imgs := make([][]byte, b.N)
		for i := range imgs {
			imgs[i] = distinctImage(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkClass, _ = n.Classify(imgs[i])
		}
	})
}

// InferReference computes the forward pass with a deliberately naive,
// index-by-index implementation (bounds-checked gathers instead of the
// structured loops above). It exists so property tests can check the
// optimized path against an independent formulation.
func (n *Network) InferReference(img []byte) ([NumClasses]float32, error) {
	var out [NumClasses]float32
	if len(img) != InputBytes {
		return out, fmt.Errorf("lenet: input is %d bytes, want %d", len(img), InputBytes)
	}
	at := func(buf []float32, w, y, x int) float32 {
		if y < 0 || x < 0 || x >= w || y*w+x >= len(buf) {
			return 0
		}
		return buf[y*w+x]
	}
	in := make([]float32, InputBytes)
	for i, px := range img {
		in[i] = float32(px)/255*2 - 1
	}
	// conv1 (pad 2) + ReLU.
	c1 := make([][]float32, 6)
	for f := 0; f < 6; f++ {
		c1[f] = make([]float32, InputSize*InputSize)
		for y := 0; y < InputSize; y++ {
			for x := 0; x < InputSize; x++ {
				sum := n.conv1B[f]
				for ky := 0; ky < 5; ky++ {
					for kx := 0; kx < 5; kx++ {
						sum += n.conv1W[f][ky][kx] * at(in, InputSize, y+ky-2, x+kx-2)
					}
				}
				c1[f][y*InputSize+x] = relu(sum)
			}
		}
	}
	maxPool := func(src []float32, w int) []float32 {
		h := len(src) / w
		out := make([]float32, (w/2)*(h/2))
		for y := 0; y < h/2; y++ {
			for x := 0; x < w/2; x++ {
				m := src[(2*y)*w+2*x]
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						if v := src[(2*y+dy)*w+2*x+dx]; v > m {
							m = v
						}
					}
				}
				out[y*(w/2)+x] = m
			}
		}
		return out
	}
	p1 := make([][]float32, 6)
	for f := range c1 {
		p1[f] = maxPool(c1[f], InputSize)
	}
	// conv2 (valid) + ReLU.
	c2 := make([][]float32, 16)
	for f := 0; f < 16; f++ {
		c2[f] = make([]float32, 10*10)
		for y := 0; y < 10; y++ {
			for x := 0; x < 10; x++ {
				sum := n.conv2B[f]
				for c := 0; c < 6; c++ {
					for ky := 0; ky < 5; ky++ {
						for kx := 0; kx < 5; kx++ {
							sum += n.conv2W[f][c][ky][kx] * at(p1[c], 14, y+ky, x+kx)
						}
					}
				}
				c2[f][y*10+x] = relu(sum)
			}
		}
	}
	flat := make([]float32, 0, 400)
	for f := 0; f < 16; f++ {
		flat = append(flat, maxPool(c2[f], 10)...)
	}
	fc := func(w, b, in []float32, act bool) []float32 {
		out := make([]float32, len(b))
		denseStraight(w, b, in, out, act)
		return out
	}
	h1 := fc(n.fc1W, n.fc1B, flat, true)
	h2 := fc(n.fc2W, n.fc2B, h1, true)
	h3 := fc(n.fc3W, n.fc3B, h2, false)
	copy(out[:], h3)
	return out, nil
}

// inferStraight is the forward pass as it was first written, one sum at a
// time: every output element adds its taps on one float32 chain, in the
// order Infer's contract names. Infer must reproduce it bit for bit.
func (n *Network) inferStraight(img []byte) ([NumClasses]float32, error) {
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
	denseStraight(n.fc1W, n.fc1B, flat[:], h1[:], true)
	denseStraight(n.fc2W, n.fc2B, h1[:], h2[:], true)
	denseStraight(n.fc3W, n.fc3B, h2[:], out[:], false)
	return out, nil
}

// denseStraight is dense one row at a time.
func denseStraight(w, b, in, out []float32, act bool) {
	for r := range out {
		sum := b[r]
		row := w[r*len(in) : (r+1)*len(in)]
		for c, v := range in {
			sum += row[c] * v
		}
		if act {
			sum = relu(sum)
		}
		out[r] = sum
	}
}

// bitsTestImages returns the 250 grid images followed by distinct images:
// noised grid images and uniformly random ones, so every normalized value
// and every conv1 border case is reached.
func bitsTestImages(seed uint64, distinct int) [][]byte {
	imgs := gridImages()
	rng := seed*0x9E3779B97F4A7C15 + 1
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < distinct; i++ {
		var img []byte
		if i%2 == 0 {
			img = distinctImage(i)
			for p := 0; p < int(next()%200); p++ {
				img[next()%InputBytes] = byte(next())
			}
		} else {
			img = make([]byte, InputBytes)
			for p := range img {
				img[p] = byte(next())
			}
		}
		imgs = append(imgs, img)
	}
	return imgs
}

// Infer's scores are bit-identical to the one-sum-at-a-time forward pass on
// the grid images and 1 200 distinct images, over three weight seeds.
func TestInferBitsMatchStraightLine(t *testing.T) {
	for _, seed := range []uint64{1, 42, 2024} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			n := New(seed)
			for i, img := range bitsTestImages(seed, 400) {
				got, err := n.Infer(img)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := n.inferStraight(img)
				for k := range got {
					if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
						t.Fatalf("image %d, class %d: Infer %v (%#08x), straight-line %v (%#08x)",
							i, k, got[k], math.Float32bits(got[k]), want[k], math.Float32bits(want[k]))
					}
				}
			}
		})
	}
}

// The normalization table holds exactly the per-pixel expression it replaces.
func TestNormTableBits(t *testing.T) {
	for px := 0; px < 256; px++ {
		want := float32(byte(px))/255*2 - 1
		if math.Float32bits(norm[px]) != math.Float32bits(want) {
			t.Fatalf("norm[%d] = %v, want %v", px, norm[px], want)
		}
	}
}
