package lenet

// The amd64 kernels are SSE assembly (lenet_amd64.s), which every amd64 CPU
// has. Each lane of a vector instruction is one output element, a conv
// column or a dense row, and takes its taps in the contract's order: MULPS
// and ADDPS round each lane as the scalar MULSS and ADDSS do.

// conv1 normalizes img into a copy with a 2-pixel zero border, then
// writes conv1's six ReLU'd output planes, max-pooled, into p1. The border
// turns every out-of-image tap into an added ±0 product, which leaves each
// sum as skipping it would: s + ±0 == s for every s but -0, and no sum is
// -0, since its bias is not (see weight).
func (n *Network) conv1(img *[InputBytes]byte, p1 *[6][14][16]float32) {
	var in [InputSize + 4][InputSize + 4]float32
	for i := 0; i < InputSize; i++ {
		row := (*[InputSize]float32)(in[i+2][2:])
		for j, px := range (*[InputSize]byte)(img[i*InputSize:]) {
			row[j] = norm[px]
		}
	}
	var c1 [InputSize][InputSize]float32
	for f := range p1 {
		conv1Plane(&c1, &in, &n.conv1W[f], n.conv1B[f])
		pool1Plane(&p1[f], &c1)
	}
}

// conv2 writes conv2's 16 ReLU'd output planes, max-pooled, into flat,
// two filters per kernel call.
func (n *Network) conv2(p1 *[6][14][16]float32, flat *[400]float32) {
	var c2 [2][10][12]float32
	for f := 0; f < 16; f += 2 {
		conv2Pair(&c2, p1, (*[2][6][5][5]float32)(n.conv2W[f:]), (*[2]float32)(n.conv2B[f:]))
		pool2Plane((*[25]float32)(flat[25*f:]), &c2[0])
		pool2Plane((*[25]float32)(flat[25*(f+1):]), &c2[1])
	}
}

// conv1Plane writes one filter's ReLU'd 28x28 output plane from the
// zero-bordered input, each output row as seven 4-lane sums.
//
//go:noescape
func conv1Plane(out *[InputSize][InputSize]float32, in *[InputSize + 4][InputSize + 4]float32, w *[5][5]float32, b float32)

// conv2Pair writes two filters' ReLU'd 10x10 output planes, each row as
// three 4-lane sums per filter (lanes 10 and 11 compute on row padding), the
// two filters sharing every input load.
//
//go:noescape
func conv2Pair(out *[2][10][12]float32, in *[6][14][16]float32, w *[2][6][5][5]float32, b *[2]float32)

// pool1Plane writes the 2x2 max-pool of a conv1 plane, scanning each
// window as max4 does.
//
//go:noescape
func pool1Plane(out *[14][16]float32, in *[InputSize][InputSize]float32)

// pool2Plane writes the 2x2 max-pool of a conv2 plane, scanning each window
// as max4 does.
//
//go:noescape
func pool2Plane(out *[25]float32, in *[10][12]float32)

// dense writes the fully connected layer w·in + b, optionally ReLU'd, into
// out, which has one element per row of the row-blocked w. It sums 12 rows,
// three blocks, per pass and reads four inputs per load, so len(out) is a
// multiple of 12 and len(in) of 4.
//
//go:noescape
func dense(w, b, in, out []float32, act bool)
