package lbp

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

// compute returns the histogram of img, failing the test on an error.
func compute(t testing.TB, img []byte) *Histogram {
	t.Helper()
	h := new(Histogram)
	if err := Compute(img, h); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestComputeRejectsBadSize(t *testing.T) {
	var h Histogram
	if err := Compute(make([]byte, 100), &h); err == nil {
		t.Fatal("short image must fail")
	}
}

func TestHistogramMass(t *testing.T) {
	h := compute(t, SynthFace(1, 0))
	var total int
	for _, c := range h {
		total += int(c)
	}
	if total != ImageBytes {
		t.Fatalf("histogram mass %d, want one code per pixel (%d)", total, ImageBytes)
	}
}

// Compute overwrites the histogram it is given rather than adding to it.
func TestComputeOverwrites(t *testing.T) {
	want := compute(t, SynthFace(3, 0))
	h := compute(t, SynthFace(4, 0))
	if err := Compute(SynthFace(3, 0), h); err != nil {
		t.Fatal(err)
	}
	if *h != *want {
		t.Fatal("a reused histogram differs from a fresh one")
	}
}

func TestChiSquareIdentityZero(t *testing.T) {
	h := compute(t, SynthFace(7, 0))
	if d := ChiSquare(h, h); d != 0 {
		t.Fatalf("chi2(x,x) = %v", d)
	}
}

// Property: chi-square is symmetric and non-negative.
func TestChiSquareMetricProperties(t *testing.T) {
	prop := func(a, b uint32) bool {
		ha, hb := compute(t, SynthFace(a, 0)), compute(t, SynthFace(b, 0))
		d1 := ChiSquare(ha, hb)
		d2 := ChiSquare(hb, ha)
		if d1 != d2 || d1 < 0 {
			return false
		}
		if a == b && d1 != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifySameIdentityUnderNoise(t *testing.T) {
	g := NewGallery()
	for id := uint32(1); id <= 20; id++ {
		ref := SynthFace(id, 0)
		probe := SynthFace(id, id*3+1) // mild capture noise
		ok, d, err := g.Verify(probe, ref, DefaultThreshold)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("identity %d rejected (distance %.1f)", id, d)
		}
	}
}

func TestVerifyDifferentIdentitiesRejected(t *testing.T) {
	g := NewGallery()
	accepted := 0
	for id := uint32(1); id <= 20; id++ {
		ref := SynthFace(id, 0)
		probe := SynthFace(id+100, 0)
		ok, _, _ := g.Verify(probe, ref, DefaultThreshold)
		if ok {
			accepted++
		}
	}
	if accepted > 2 {
		t.Fatalf("%d/20 impostors accepted; threshold too loose", accepted)
	}
}

func TestVerifyErrors(t *testing.T) {
	g := NewGallery()
	if _, _, err := g.Verify(make([]byte, 3), SynthFace(1, 0), DefaultThreshold); err == nil {
		t.Fatal("bad probe must fail")
	}
	for call := 0; call < 2; call++ {
		if _, _, err := g.Verify(SynthFace(1, 0), make([]byte, 3), DefaultThreshold); err == nil {
			t.Fatalf("bad reference, call %d: must fail", call)
		}
	}
	if got := galleryLen(g); got != 0 {
		t.Fatalf("gallery holds %d entries after only bad references", got)
	}
}

func TestSynthFaceDeterministic(t *testing.T) {
	a := SynthFace(5, 2)
	b := SynthFace(5, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("synthetic faces must be deterministic")
		}
	}
	if len(a) != ImageBytes {
		t.Fatalf("face size %d", len(a))
	}
}

func galleryLen(g *Gallery) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.hist)
}

// verifyStraight is face verification as it was first written: both
// histograms computed by computeStraight, compared by chiSquareStraight.
func verifyStraight(probe, reference []byte, threshold float64) (bool, float64, error) {
	hp, err := computeStraight(probe)
	if err != nil {
		return false, 0, err
	}
	hr, err := computeStraight(reference)
	if err != nil {
		return false, 0, err
	}
	d := chiSquareStraight(&hp, &hr)
	return d <= threshold, d, nil
}

// computeStraight is Compute as it was first written: a bounds-checked
// neighbour read per tap, the histogram returned by value.
func computeStraight(img []byte) (Histogram, error) {
	var h Histogram
	if len(img) != ImageBytes {
		return h, fmt.Errorf("lbp: image is %d bytes, want %d", len(img), ImageBytes)
	}
	at := func(y, x int) byte {
		if y < 0 || y >= Size || x < 0 || x >= Size {
			return 0
		}
		return img[y*Size+x]
	}
	for y := 0; y < Size; y++ {
		for x := 0; x < Size; x++ {
			c := at(y, x)
			var code byte
			// Clockwise from top-left.
			neighbors := [8][2]int{
				{y - 1, x - 1}, {y - 1, x}, {y - 1, x + 1},
				{y, x + 1},
				{y + 1, x + 1}, {y + 1, x}, {y + 1, x - 1},
				{y, x - 1},
			}
			for bit, nb := range neighbors {
				if at(nb[0], nb[1]) >= c {
					code |= 1 << uint(bit)
				}
			}
			cell := (y/cellSize)*cells + x/cellSize
			h[cell*histBins+int(code)]++
		}
	}
	return h, nil
}

// chiSquareStraight is ChiSquare as it was first written.
func chiSquareStraight(a, b *Histogram) float64 {
	var d float64
	for i := range a {
		x, y := float64(a[i]), float64(b[i])
		if s := x + y; s > 0 {
			diff := x - y
			d += diff * diff / s
		}
	}
	return d
}

// bitsTestImages returns faces of many identities under capture noise, and
// uniformly random images, whose zero pixels reach the image-border case.
func bitsTestImages(n int) [][]byte {
	var imgs [][]byte
	rng := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		if i%4 != 3 {
			imgs = append(imgs, SynthFace(uint32(i/2), uint32(i%2*(i+1))))
			continue
		}
		img := make([]byte, ImageBytes)
		for p := range img {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			img[p] = byte(rng) & byte(rng>>8) // one pixel in ten is 0, like the border
		}
		imgs = append(imgs, img)
	}
	return imgs
}

// Compute and ChiSquare agree with the straight-line versions exactly: equal
// histograms, and distances with equal float64 bits.
func TestBitsMatchStraightLine(t *testing.T) {
	imgs := bitsTestImages(600)
	hists := make([]*Histogram, len(imgs))
	for i, img := range imgs {
		hists[i] = compute(t, img)
		want, _ := computeStraight(img)
		if *hists[i] != want {
			t.Fatalf("image %d: Compute differs from the straight-line histogram", i)
		}
	}
	for i := range hists {
		for _, j := range []int{i, (i + 1) % len(hists), (i * 7) % len(hists)} {
			got, want := ChiSquare(hists[i], hists[j]), chiSquareStraight(hists[i], hists[j])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("images %d, %d: ChiSquare %v, straight-line %v", i, j, got, want)
			}
		}
	}
}

// A gallery hit answers exactly what the uncached straight-line Verify does,
// on first sight and on every repeat of a reference.
func TestGalleryMatchesStraightLine(t *testing.T) {
	g := NewGallery()
	for pass := 0; pass < 2; pass++ {
		for id := uint32(0); id < 50; id++ {
			for _, probe := range [][]byte{SynthFace(id, id+1), SynthFace(id+1000, 0)} {
				ref := SynthFace(id, 0)
				ok, d, err := g.Verify(probe, ref, DefaultThreshold)
				wok, wd, werr := verifyStraight(probe, ref, DefaultThreshold)
				if err != nil || werr != nil {
					t.Fatal(err, werr)
				}
				if ok != wok || math.Float64bits(d) != math.Float64bits(wd) {
					t.Fatalf("pass %d, id %d: Verify (%v, %v), straight-line (%v, %v)", pass, id, ok, d, wok, wd)
				}
			}
		}
	}
	if got := galleryLen(g); got != 50 {
		t.Fatalf("gallery holds %d entries for 50 references", got)
	}
}

// The gallery stops growing at galleryCap and keeps answering correctly past
// it. It is filled with synthetic digests up to a few entries short of the
// cap, so real references cross it.
func TestGalleryBounded(t *testing.T) {
	const short, extra = 3, 5
	g := NewGallery()
	for i := 0; len(g.hist) < galleryCap-short; i++ {
		g.hist[sha256.Sum256([]byte{byte(i), byte(i >> 8), 0xfe})] = new(Histogram)
	}
	for i := 0; i < short+extra; i++ {
		probe, ref := SynthFace(uint32(i), 1), SynthFace(uint32(i), 0)
		_, want, _ := verifyStraight(probe, ref, DefaultThreshold)
		for call := 0; call < 2; call++ {
			_, d, err := g.Verify(probe, ref, DefaultThreshold)
			if err != nil {
				t.Fatal(err)
			}
			if d != want {
				t.Fatalf("reference %d, call %d: distance %v, want %v", i, call, d, want)
			}
		}
		if _, cached := g.hist[sha256.Sum256(ref)]; cached != (i < short) {
			t.Fatalf("reference %d: cached = %v with the cap at %d", i, cached, galleryCap)
		}
	}
	if got := galleryLen(g); got != galleryCap {
		t.Fatalf("gallery holds %d entries, want %d", got, galleryCap)
	}
}

// Concurrent callers sharing one Gallery get the straight-line answers.
func TestGalleryConcurrent(t *testing.T) {
	const workers, ids = 8, 20
	g := NewGallery()
	want := make([]float64, ids)
	for id := range want {
		_, want[id], _ = verifyStraight(SynthFace(uint32(id), 9), SynthFace(uint32(id), 0), DefaultThreshold)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 2*ids; k++ {
				id := (k*7 + w*13) % ids
				_, d, err := g.Verify(SynthFace(uint32(id), 9), SynthFace(uint32(id), 0), DefaultThreshold)
				if err != nil || d != want[id] {
					t.Errorf("worker %d, id %d: distance %v (%v), want %v", w, id, d, err, want[id])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := galleryLen(g); got != ids {
		t.Fatalf("gallery holds %d entries for %d references", got, ids)
	}
}

var sinkDistance float64

// BenchmarkVerify times a verification whose reference the gallery has not
// seen (cold: a new gallery every iteration) and one it has cached (warm).
func BenchmarkVerify(b *testing.B) {
	probe, ref := SynthFace(7, 3), SynthFace(7, 0)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, sinkDistance, _ = NewGallery().Verify(probe, ref, DefaultThreshold)
		}
	})
	b.Run("warm", func(b *testing.B) {
		g := NewGallery()
		if _, _, err := g.Verify(probe, ref, DefaultThreshold); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, sinkDistance, _ = g.Verify(probe, ref, DefaultThreshold)
		}
	})
}
