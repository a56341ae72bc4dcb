// Package lbp implements Local Binary Patterns face verification (Ahonen et
// al. [3] in the paper), the GPU kernel of the §6.4 multi-tier Face
// Verification server: a received face image is compared against the
// database image for the claimed identity; the comparison is an LBP
// histogram chi-square distance under a threshold.
//
// Images are 32x32 grayscale ("images from a color FERET Database resized to
// 32x32", §6.4).
package lbp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
)

// Image geometry.
const (
	Size       = 32
	ImageBytes = Size * Size
	// cells per side: 4x4 grid of 8x8 cells, 256-bin histogram each.
	cells     = 4
	cellSize  = Size / cells
	histBins  = 256
	histWords = cells * cells * histBins
)

// Histogram is the concatenated per-cell LBP histogram of one image. A
// count fits a byte: a cell has cellSize*cellSize = 64 pixels.
type Histogram [histWords]uint8

// Compute fills h with the LBP histogram of a 32x32 image. Each pixel's code
// sets bit i when its i-th neighbour, clockwise from the top-left, is at
// least the pixel; neighbours outside the image read as 0.
func Compute(img []byte, h *Histogram) error {
	if len(img) != ImageBytes {
		return fmt.Errorf("lbp: image is %d bytes, want %d", len(img), ImageBytes)
	}
	*h = Histogram{}
	var pad [Size + 2][Size + 2]byte // img with a border of zeros
	for y := range Size {
		copy(pad[y+1][1:Size+1], img[y*Size:])
	}
	for y := range Size {
		up, mid, down := &pad[y], &pad[y+1], &pad[y+2]
		cellRow := h[y/cellSize*cells*histBins:][:cells*histBins]
		for x := range Size {
			c := mid[x+1]
			code := ge(up[x], c) | ge(up[x+1], c)<<1 | ge(up[x+2], c)<<2 |
				ge(mid[x+2], c)<<3 |
				ge(down[x+2], c)<<4 | ge(down[x+1], c)<<5 | ge(down[x], c)<<6 |
				ge(mid[x], c)<<7
			cellRow[x/cellSize*histBins+int(code)]++
		}
	}
	return nil
}

// ge is 1 if a >= c, else 0.
func ge(a, c byte) byte {
	if a >= c {
		return 1
	}
	return 0
}

// ChiSquare computes the chi-square distance between two histograms:
// sum((a-b)^2 / (a+b)) over non-empty bins, added in ascending bin order.
// Zero iff identical.
func ChiSquare(a, b *Histogram) float64 {
	var d float64
	for i := 0; i < histWords; i += 8 {
		// Most bins are empty in both: skip eight at a time.
		if binary.LittleEndian.Uint64(a[i:])|binary.LittleEndian.Uint64(b[i:]) == 0 {
			continue
		}
		for j := i; j < i+8; j++ {
			if x, y := a[j], b[j]; x|y != 0 {
				diff := float64(int(x) - int(y))
				d += diff * diff / float64(int(x)+int(y))
			}
		}
	}
	return d
}

// DefaultThreshold separates same/different faces for the synthetic corpus.
const DefaultThreshold = 120.0

// galleryCap bounds the number of reference histograms a Gallery holds. A
// served gallery is a few hundred identities; the cap keeps a stream of
// distinct references from growing it without limit.
const galleryCap = 1024

// Gallery verifies probes against reference images. A reference is a
// gallery image, fixed per identity, so its histogram is cached by the
// SHA-256 digest of the image: a repeated reference costs a hash and a
// lookup instead of a Compute. The cache never goes stale (a histogram is a
// function of the image), holds at most galleryCap entries, and never stores
// an error. A Gallery is safe for concurrent use.
type Gallery struct {
	mu   sync.Mutex
	hist map[[sha256.Size]byte]*Histogram
}

// NewGallery returns an empty gallery.
func NewGallery() *Gallery {
	return &Gallery{hist: make(map[[sha256.Size]byte]*Histogram)}
}

// Verify reports whether probe and reference depict the same face under the
// threshold, and their chi-square distance.
func (g *Gallery) Verify(probe, reference []byte, threshold float64) (bool, float64, error) {
	var hp Histogram
	if err := Compute(probe, &hp); err != nil {
		return false, 0, err
	}
	hr, err := g.reference(reference)
	if err != nil {
		return false, 0, err
	}
	d := ChiSquare(&hp, hr)
	return d <= threshold, d, nil
}

// reference returns the histogram of a reference image, from the cache when
// the gallery has seen the image before.
func (g *Gallery) reference(img []byte) (*Histogram, error) {
	key := sha256.Sum256(img)
	g.mu.Lock()
	h, ok := g.hist[key]
	g.mu.Unlock()
	if ok {
		return h, nil
	}
	h = new(Histogram)
	if err := Compute(img, h); err != nil {
		return nil, err
	}
	g.mu.Lock()
	if len(g.hist) < galleryCap {
		g.hist[key] = h
	}
	g.mu.Unlock()
	return h, nil
}

// ---------------------------------------------------------------------------
// Synthetic face corpus

// SynthFace renders a deterministic 32x32 pseudo-face for an identity:
// smooth gradients plus identity-specific feature blobs, so that different
// identities are far apart in LBP space while re-renderings of the same
// identity (with mild noise) stay close.
func SynthFace(id uint32, noise uint32) []byte {
	img := make([]byte, ImageBytes)
	rng := uint64(id)*0x9E3779B97F4A7C15 + 0x1234567
	next := func() uint32 {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return uint32(rng * 0x2545F4914F6CDD1D >> 32)
	}
	// Base gradient varies per identity.
	gx, gy := int(next()%5)+1, int(next()%5)+1
	for y := 0; y < Size; y++ {
		for x := 0; x < Size; x++ {
			img[y*Size+x] = byte((x*gx + y*gy) * 4 % 200)
		}
	}
	// Feature blobs ("eyes", "mouth") at identity-specific positions.
	for b := 0; b < 6; b++ {
		cx, cy := int(next()%28)+2, int(next()%28)+2
		v := byte(next()%128 + 127)
		for dy := -2; dy <= 2; dy++ {
			for dx := -2; dx <= 2; dx++ {
				x, y := cx+dx, cy+dy
				if x >= 0 && x < Size && y >= 0 && y < Size && dx*dx+dy*dy <= 4 {
					img[y*Size+x] = v
				}
			}
		}
	}
	// Mild capture noise: flip a few low-order pixels deterministically.
	nr := uint64(noise)*0xD1342543DE82EF95 + 1
	for i := 0; i < int(noise%8); i++ {
		nr ^= nr >> 13
		nr ^= nr << 7
		pos := int(nr % ImageBytes)
		img[pos] ^= 0x04
	}
	return img
}
