#include "textflag.h"

// func accumulateInt8x8(acc *float32, codes *byte, n int, scale, bias float32)
//
// acc[i] += bias + scale*float32(codes[i]) for i in [0, n); n must be a
// positive multiple of 8. SSE2 only (the GOAMD64=v1 baseline). Each lane
// does the three separately rounded operations of the Go expression in its
// order — MULPS, ADDPS, ADDPS, never a fused multiply-add — so every
// non-NaN result is bit-identical to the portable loop's. The running term
// is the destination operand throughout, as in the compiler's own scalar
// code. All memory accesses are unaligned-safe.
TEXT ·accumulateInt8x8(SB), NOSPLIT, $0-32
	MOVQ   acc+0(FP), DI
	MOVQ   codes+8(FP), SI
	MOVQ   n+16(FP), CX
	MOVSS  scale+24(FP), X6
	MOVSS  bias+28(FP), X7
	SHUFPS $0, X6, X6          // scale in all four lanes
	SHUFPS $0, X7, X7          // bias in all four lanes
	PXOR   X5, X5

loop:
	MOVQ      (SI), X0         // 8 codes
	PUNPCKLBW X5, X0           // → 8 × uint16
	MOVO      X0, X1
	PUNPCKLWL X5, X0           // codes 0–3 → 4 × int32
	PUNPCKHWL X5, X1           // codes 4–7 → 4 × int32
	CVTPL2PS  X0, X0
	CVTPL2PS  X1, X1
	MULPS     X6, X0           // scale*code
	MULPS     X6, X1
	ADDPS     X7, X0           // + bias
	ADDPS     X7, X1
	MOVUPS    (DI), X2
	MOVUPS    16(DI), X3
	ADDPS     X2, X0           // + acc
	ADDPS     X3, X1
	MOVUPS    X0, (DI)
	MOVUPS    X1, 16(DI)
	ADDQ      $8, SI
	ADDQ      $32, DI
	SUBQ      $8, CX
	JNZ       loop
	RET
