#include "textflag.h"

// EIGHT adds the eight codes at src (in the row at SI), dequantized, into the
// lanes lo (0–3) and hi (4–7): lane += bias + scale*float32(code), with
// scale in X8, bias in X9 and zero in X10 (X11, X12 scratch). Each lane does
// the three separately rounded operations of the Go expression — MULPS,
// ADDPS, ADDPS, never a fused multiply-add — so every non-NaN sum is
// bit-identical to the portable loop's.
#define EIGHT(src, lo, hi) \
	MOVQ      src, X11; \
	PUNPCKLBW X10, X11; \
	MOVO      X11, X12; \
	PUNPCKLWL X10, X11; \
	PUNPCKHWL X10, X12; \
	CVTPL2PS  X11, X11; \
	CVTPL2PS  X12, X12; \
	MULPS     X8, X11; \
	MULPS     X8, X12; \
	ADDPS     X9, X11; \
	ADDPS     X9, X12; \
	ADDPS     X11, lo; \
	ADDPS     X12, hi

// ROW loads the next row of the list at BX into SI, pointed at its code for
// column col (R8), with its footer's scale and bias (at dim, DX) broadcast
// into X8 and X9.
#define ROW \
	MOVQ   (BX), SI; \
	MOVSS  (SI)(DX*1), X8; \
	MOVSS  4(SI)(DX*1), X9; \
	SHUFPS $0, X8, X8; \
	SHUFPS $0, X9, X9; \
	ADDQ   R8, SI; \
	ADDQ   $24, BX

// func poolInt8x8(acc, tail *float32, rows *[]byte, nrows, dim int)
//
// For each of the nrows row slices in order — dim codes, then the float32
// scale and bias — acc[j] += bias + scale*float32(row[j]) for j in
// [0, n = dim&^7) and, when dim is not a multiple of 8, tail[j] += bias +
// scale*float32(row[n+j]) for j in [0, 8): those eight bytes end inside the
// footer, so the tail's lanes from dim−n on are the caller's to drop. nrows
// must be positive, acc address n elements and tail eight, and every row be
// at least dim+8 bytes long. SSE2 only (the GOAMD64=v1 baseline).
//
// The caller has prefetched every row (Prefetch), so that the rows'
// first-touch misses are all in flight together. Columns go in blocks of
// 32, and the last 0–3 blocks of 8 with the tail in one more pass: a block's
// accumulators stay in registers across all the rows, so acc is read and
// written once per pass rather than once per row, and the rows' loads depend
// on nothing before them. The row term is added to the running sum in
// row order, as one AccumulateRow per row would. All memory accesses are
// unaligned-safe.
TEXT ·poolInt8x8(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ tail+8(FP), R12
	MOVQ rows+16(FP), AX
	MOVQ nrows+24(FP), R9
	MOVQ dim+32(FP), DX
	MOVQ DX, R10
	ANDQ $-8, R10             // R10: columns left for acc
	XORQ R8, R8               // R8: the next column
	PXOR X10, X10

wide:
	CMPQ   R10, $32
	JLT    rest
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	MOVUPS 64(DI), X4
	MOVUPS 80(DI), X5
	MOVUPS 96(DI), X6
	MOVUPS 112(DI), X7
	MOVQ   AX, BX
	MOVQ   R9, CX

wideRow:
	ROW
	EIGHT(0(SI), X0, X1)
	EIGHT(8(SI), X2, X3)
	EIGHT(16(SI), X4, X5)
	EIGHT(24(SI), X6, X7)
	DECQ CX
	JNZ  wideRow

	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	ADDQ   $128, DI
	ADDQ   $32, R8
	SUBQ   $32, R10
	JMP    wide

	// R10 is 0, 8, 16 or 24 and R13 the tail's width (0–7); the tail block
	// reads the codes from column R8+R10 on into X6 and X7.
rest:
	MOVQ DX, R13
	ANDQ $7, R13
	MOVQ R10, R11
	ORQ  R13, R11
	JZ   done
	CMPQ R10, $8
	JLT  loadTail
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	CMPQ R10, $16
	JLT  loadTail
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	CMPQ R10, $24
	JLT  loadTail
	MOVUPS 64(DI), X4
	MOVUPS 80(DI), X5

loadTail:
	TESTQ  R13, R13
	JZ     restRows
	MOVUPS (R12), X6
	MOVUPS 16(R12), X7

restRows:
	MOVQ AX, BX
	MOVQ R9, CX

restRow:
	ROW
	CMPQ R10, $8
	JLT  restTail
	EIGHT(0(SI), X0, X1)
	CMPQ R10, $16
	JLT  restTail
	EIGHT(8(SI), X2, X3)
	CMPQ R10, $24
	JLT  restTail
	EIGHT(16(SI), X4, X5)

restTail:
	TESTQ R13, R13
	JZ    restNext
	EIGHT((SI)(R10*1), X6, X7)

restNext:
	DECQ CX
	JNZ  restRow

	CMPQ R10, $8
	JLT  storeTail
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	CMPQ R10, $16
	JLT  storeTail
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	CMPQ R10, $24
	JLT  storeTail
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)

storeTail:
	TESTQ  R13, R13
	JZ     done
	MOVUPS X6, (R12)
	MOVUPS X7, 16(R12)

done:
	RET
