//go:build !amd64

package lenet

// The portable kernels: Go loops that keep several sums in flight in scalar
// registers. They are the only path on platforms without assembly kernels.

func relu(x float32) float32 {
	if x < 0 {
		return 0
	}
	return x
}

// conv1 normalizes img and writes conv1's six ReLU'd output planes,
// max-pooled, into p1.
func (n *Network) conv1(img *[InputBytes]byte, p1 *[6][14][16]float32) {
	var in [InputSize][InputSize]float32
	for i := range in {
		row := (*[InputSize]byte)(img[i*InputSize:])
		for j, px := range row {
			in[i][j] = norm[px]
		}
	}
	var c1 [6][InputSize][InputSize]float32
	for f := range c1 {
		n.conv1Plane(f, &in, &c1[f])
	}
	for f := range p1 {
		for y := 0; y < 14; y++ {
			for x := 0; x < 14; x++ {
				p1[f][y][x] = max4(c1[f][2*y][2*x], c1[f][2*y][2*x+1], c1[f][2*y+1][2*x], c1[f][2*y+1][2*x+1])
			}
		}
	}
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

// conv2 writes conv2's 16 ReLU'd output planes, max-pooled and flattened
// channel-major, into flat.
func (n *Network) conv2(p1 *[6][14][16]float32, flat *[400]float32) {
	var c2 [16][10][10]float32
	for f := range c2 {
		for y := range c2[f] {
			n.conv2Row(f, y, p1, &c2[f][y])
		}
	}
	idx := 0
	for f := range c2 {
		for y := 0; y < 5; y++ {
			for x := 0; x < 5; x++ {
				flat[idx] = max4(c2[f][2*y][2*x], c2[f][2*y][2*x+1], c2[f][2*y+1][2*x], c2[f][2*y+1][2*x+1])
				idx++
			}
		}
	}
}

// conv2Row writes row y of filter f's ReLU'd output, its ten sums kept in
// flight together.
func (n *Network) conv2Row(f, y int, p1 *[6][14][16]float32, out *[10]float32) {
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
// out, which has one element per row of the row-blocked w (len(out) is a
// multiple of 4). Each block's four rows are summed together.
func dense(w, b, in, out []float32, act bool) {
	cols := len(in)
	for r := 0; r < len(out); r += 4 {
		blk := w[r*cols:][:4*cols]
		s0, s1, s2, s3 := b[r], b[r+1], b[r+2], b[r+3]
		for c, v := range in {
			wv := (*[4]float32)(blk[4*c:])
			s0 += wv[0] * v
			s1 += wv[1] * v
			s2 += wv[2] * v
			s3 += wv[3] * v
		}
		if act {
			s0, s1, s2, s3 = relu(s0), relu(s1), relu(s2), relu(s3)
		}
		out[r], out[r+1], out[r+2], out[r+3] = s0, s1, s2, s3
	}
}
