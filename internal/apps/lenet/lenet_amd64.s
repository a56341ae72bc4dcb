#include "textflag.h"

// SSE kernels for the LeNet-5 forward pass. Every lane is one output sum,
// started at its bias and taking its taps in the order DESIGN §4.7 fixes,
// one MULPS and one ADDPS per tap: no FMA, no horizontal add, no
// reassociation. Loads are MOVUPS from buffers padded so that no load
// leaves its Go array.

// RELU_STORE stores acc with Go's ReLU applied, x < 0 -> +0 (so -0 and NaN
// pass through, unlike MAXPS). zero holds +0 in every lane; tmp is
// clobbered.
#define RELU_STORE(acc, tmp, zero, dst) \
	MOVAPS acc, tmp; \
	CMPPS  zero, tmp, $1; \
	ANDNPS acc, tmp; \
	MOVUPS tmp, dst

// CONV1_TAP adds kernel column kx of the kernel row at R9 to the seven
// output vectors X0-X6, reading the input row at R8. X7 and X8 are scratch.
#define CONV1_TAP(kx) \
	MOVSS  (kx*4)(R9), X7; \
	SHUFPS $0, X7, X7; \
	MOVUPS (kx*4)(R8), X8; MULPS X7, X8; ADDPS X8, X0; \
	MOVUPS (kx*4+16)(R8), X8; MULPS X7, X8; ADDPS X8, X1; \
	MOVUPS (kx*4+32)(R8), X8; MULPS X7, X8; ADDPS X8, X2; \
	MOVUPS (kx*4+48)(R8), X8; MULPS X7, X8; ADDPS X8, X3; \
	MOVUPS (kx*4+64)(R8), X8; MULPS X7, X8; ADDPS X8, X4; \
	MOVUPS (kx*4+80)(R8), X8; MULPS X7, X8; ADDPS X8, X5; \
	MOVUPS (kx*4+96)(R8), X8; MULPS X7, X8; ADDPS X8, X6

// func conv1Plane(out *[28][28]float32, in *[32][32]float32, w *[5][5]float32, b float32)
//
// Output row y is seven vectors, columns 0-3 ... 24-27; kernel row ky reads
// input row y+ky, whose columns 0-31 are the image's columns -2..29.
TEXT ·conv1Plane(SB), NOSPLIT, $0-28
	MOVQ   out+0(FP), DI
	MOVQ   in+8(FP), SI
	MOVQ   w+16(FP), DX
	MOVSS  b+24(FP), X9
	SHUFPS $0, X9, X9
	XORPS  X10, X10
	MOVQ   $28, CX

conv1row:
	MOVAPS X9, X0
	MOVAPS X9, X1
	MOVAPS X9, X2
	MOVAPS X9, X3
	MOVAPS X9, X4
	MOVAPS X9, X5
	MOVAPS X9, X6
	MOVQ   SI, R8
	MOVQ   DX, R9
	MOVQ   $5, BX

conv1krow:
	CONV1_TAP(0)
	CONV1_TAP(1)
	CONV1_TAP(2)
	CONV1_TAP(3)
	CONV1_TAP(4)
	ADDQ $128, R8
	ADDQ $20, R9
	DECQ BX
	JNZ  conv1krow

	RELU_STORE(X0, X8, X10, 0(DI))
	RELU_STORE(X1, X8, X10, 16(DI))
	RELU_STORE(X2, X8, X10, 32(DI))
	RELU_STORE(X3, X8, X10, 48(DI))
	RELU_STORE(X4, X8, X10, 64(DI))
	RELU_STORE(X5, X8, X10, 80(DI))
	RELU_STORE(X6, X8, X10, 96(DI))
	ADDQ $112, DI
	ADDQ $128, SI
	DECQ CX
	JNZ  conv1row
	RET

// CONV2_TAP adds kernel column kx to both filters' output vectors, X0-X2
// (filter 0, weights at R9) and X3-X5 (filter 1, weights 600 bytes on),
// reading the input row at R8 once for both. X6-X11 are scratch.
#define CONV2_TAP(kx) \
	MOVSS  (kx*4)(R9), X9; \
	SHUFPS $0, X9, X9; \
	MOVSS  (kx*4+600)(R9), X10; \
	SHUFPS $0, X10, X10; \
	MOVUPS (kx*4)(R8), X6; \
	MOVUPS (kx*4+16)(R8), X7; \
	MOVUPS (kx*4+32)(R8), X8; \
	MOVAPS X6, X11; MULPS X9, X11; ADDPS X11, X0; MULPS X10, X6; ADDPS X6, X3; \
	MOVAPS X7, X11; MULPS X9, X11; ADDPS X11, X1; MULPS X10, X7; ADDPS X7, X4; \
	MOVAPS X8, X11; MULPS X9, X11; ADDPS X11, X2; MULPS X10, X8; ADDPS X8, X5

// func conv2Pair(out *[2][10][12]float32, in *[6][14][16]float32, w *[2][6][5][5]float32, b *[2]float32)
//
// Output row y is three vectors per filter, columns 0-3, 4-7 and 8-11;
// columns 10 and 11 read row padding and are never pooled. Channel c,
// kernel row ky reads input row y+ky of plane c (64 bytes a row, 896 a
// plane); the weights are read in storage order, 20 bytes a kernel row.
TEXT ·conv2Pair(SB), NOSPLIT, $0-32
	MOVQ   out+0(FP), DI
	MOVQ   in+8(FP), SI
	MOVQ   w+16(FP), DX
	MOVQ   b+24(FP), AX
	MOVSS  (AX), X12
	SHUFPS $0, X12, X12
	MOVSS  4(AX), X13
	SHUFPS $0, X13, X13
	XORPS  X14, X14
	MOVQ   $10, CX

conv2row:
	MOVAPS X12, X0
	MOVAPS X12, X1
	MOVAPS X12, X2
	MOVAPS X13, X3
	MOVAPS X13, X4
	MOVAPS X13, X5
	MOVQ   SI, R8
	MOVQ   DX, R9
	MOVQ   $6, BX

conv2chan:
	MOVQ $5, R10

conv2krow:
	CONV2_TAP(0)
	CONV2_TAP(1)
	CONV2_TAP(2)
	CONV2_TAP(3)
	CONV2_TAP(4)
	ADDQ $64, R8
	ADDQ $20, R9
	DECQ R10
	JNZ  conv2krow
	ADDQ $(896-5*64), R8
	DECQ BX
	JNZ  conv2chan

	RELU_STORE(X0, X6, X14, 0(DI))
	RELU_STORE(X1, X6, X14, 16(DI))
	RELU_STORE(X2, X6, X14, 32(DI))
	RELU_STORE(X3, X6, X14, 480(DI))
	RELU_STORE(X4, X6, X14, 496(DI))
	RELU_STORE(X5, X6, X14, 512(DI))
	ADDQ $48, DI
	ADDQ $64, SI
	DECQ CX
	JNZ  conv2row
	RET

// DENSE_COL adds input c+k (lane k of X7) times its weights, 16 bytes for
// each of the three blocks at off(R8), off(R8)(R12*1) and off(R8)(R12*2),
// to the block sums X0-X2. X3-X6 are scratch.
#define DENSE_COL(k, off) \
	PSHUFD $(k*0x55), X7, X3; \
	MOVUPS off(R8), X4; MULPS X3, X4; ADDPS X4, X0; \
	MOVUPS off(R8)(R12*1), X5; MULPS X3, X5; ADDPS X5, X1; \
	MOVUPS off(R8)(R12*2), X6; MULPS X3, X6; ADDPS X6, X2

// func dense(w, b, in, out []float32, act bool)
//
// A pass sums three row blocks, 12 rows, in X0-X2; R12 is a block's size,
// len(in)*16 bytes. Each loop takes four inputs, so len(in) is a multiple
// of 4.
TEXT ·dense(SB), NOSPLIT, $0-97
	MOVQ    w_base+0(FP), SI
	MOVQ    b_base+24(FP), AX
	MOVQ    in_base+48(FP), DX
	MOVQ    in_len+56(FP), R11
	MOVQ    out_base+72(FP), DI
	MOVQ    out_len+80(FP), CX
	MOVBLZX act+96(FP), R13
	MOVQ    R11, R12
	SHLQ    $4, R12
	XORPS   X14, X14

densepass:
	MOVUPS (AX), X0
	MOVUPS 16(AX), X1
	MOVUPS 32(AX), X2
	MOVQ   SI, R8
	MOVQ   DX, BX
	MOVQ   R11, R10

densecol:
	MOVUPS (BX), X7
	DENSE_COL(0, 0)
	DENSE_COL(1, 16)
	DENSE_COL(2, 32)
	DENSE_COL(3, 48)
	ADDQ   $64, R8
	ADDQ   $16, BX
	SUBQ   $4, R10
	JNZ    densecol

	TESTQ R13, R13
	JZ    densestore
	RELU_STORE(X0, X4, X14, (DI))
	RELU_STORE(X1, X4, X14, 16(DI))
	RELU_STORE(X2, X4, X14, 32(DI))
	JMP   densenext

densestore:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)

densenext:
	LEAQ (R8)(R12*2), SI
	ADDQ $48, AX
	ADDQ $48, DI
	SUBQ $12, CX
	JNZ  densepass
	RET

// MAX_STEP sets m to x in each lane where x > m, as Go's
// `if x > m { m = x }` does: CMPPS LT is false for NaN, and the blend keeps
// -0 and NaN bits, which MAXPS would not. x is clobbered, and so is t.
#define MAX_STEP(m, x, t) \
	MOVAPS m, t; \
	CMPPS  x, t, $1; \
	ANDPS  t, x; \
	ANDNPS m, t; \
	ORPS   t, x; \
	MOVAPS x, m

// POOL_PAIR leaves in X2 the 2x2 max-pools of the window pairs whose top
// rows are the vectors lo and hi at R8 and whose bottom rows are at R9: the
// even columns of lo and hi, then their odd columns, in the order max4
// scans a window. SHUFPS 0x88 picks lanes 0 and 2 of each operand, 0xDD
// lanes 1 and 3. X0, X1, X3 and X4 are scratch.
#define POOL_PAIR(lo, hi) \
	MOVUPS lo(R8), X0; \
	MOVUPS hi(R8), X1; \
	MOVAPS X0, X2; \
	SHUFPS $0x88, X1, X2; \
	SHUFPS $0xDD, X1, X0; \
	MAX_STEP(X2, X0, X3); \
	MOVUPS lo(R9), X0; \
	MOVUPS hi(R9), X1; \
	MOVAPS X0, X4; \
	SHUFPS $0x88, X1, X4; \
	SHUFPS $0xDD, X1, X0; \
	MAX_STEP(X2, X4, X3); \
	MAX_STEP(X2, X0, X3)

// func pool1Plane(out *[14][16]float32, in *[28][28]float32)
//
// Output row p pools input rows 2p and 2p+1 (112 bytes each): columns 0-7,
// 8-15 and 16-23 give four outputs each, and columns 24-27, paired with
// themselves, give the last two.
TEXT ·pool1Plane(SB), NOSPLIT, $0-16
	MOVQ out+0(FP), DI
	MOVQ in+8(FP), R8
	MOVQ $14, CX

pool1row:
	LEAQ 112(R8), R9
	POOL_PAIR(0, 16)
	MOVUPS X2, (DI)
	POOL_PAIR(32, 48)
	MOVUPS X2, 16(DI)
	POOL_PAIR(64, 80)
	MOVUPS X2, 32(DI)
	POOL_PAIR(96, 96)
	MOVQ X2, 48(DI)
	ADDQ $64, DI
	ADDQ $224, R8
	DECQ CX
	JNZ  pool1row
	RET

// func pool2Plane(out *[25]float32, in *[10][12]float32)
//
// Output row p pools input rows 2p and 2p+1 (48 bytes each): columns 0-7
// give four outputs, and columns 8-11, paired with themselves, the fifth
// (columns 10 and 11 are row padding; their lane is dropped).
TEXT ·pool2Plane(SB), NOSPLIT, $0-16
	MOVQ out+0(FP), DI
	MOVQ in+8(FP), R8
	MOVQ $5, CX

pool2row:
	LEAQ 48(R8), R9
	POOL_PAIR(0, 16)
	MOVUPS X2, (DI)
	POOL_PAIR(32, 32)
	MOVSS X2, 16(DI)
	ADDQ $20, DI
	ADDQ $96, R8
	DECQ CX
	JNZ  pool2row
	RET
