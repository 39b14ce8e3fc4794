#include "textflag.h"

// func extremesX8(src *float32, n int) (minV, maxV float32)
//
// extremes over src[0:n] from ±Inf; n must be a positive multiple of 8.
// SSE2 only. Each lane keeps the portable loop's rule: the data register is
// MINPS/MAXPS's destination, whose compare fails on a NaN and on a tie, and
// the instruction then returns the source, the running extreme. So no NaN
// ever enters an accumulator, and the folded values equal the loop's up to
// the sign of a zero, which the caller settles.
TEXT ·extremesX8(SB), NOSPLIT, $0-24
	MOVQ   src+0(FP), SI
	MOVQ   n+8(FP), CX
	MOVL   $0x7f800000, AX     // +Inf
	MOVQ   AX, X4
	SHUFPS $0, X4, X4
	MOVAPS X4, X5              // minima of lanes 0–3 and 4–7
	MOVL   $0xff800000, AX     // -Inf
	MOVQ   AX, X6
	SHUFPS $0, X6, X6
	MOVAPS X6, X7              // maxima of lanes 0–3 and 4–7

loop:
	MOVUPS (SI), X0
	MOVUPS 16(SI), X1
	MOVAPS X0, X2
	MOVAPS X1, X3
	MINPS  X4, X0              // v < min ? v : min
	MINPS  X5, X1
	MAXPS  X6, X2              // v > max ? v : max
	MAXPS  X7, X3
	MOVAPS X0, X4
	MOVAPS X1, X5
	MOVAPS X2, X6
	MOVAPS X3, X7
	ADDQ   $32, SI
	SUBQ   $8, CX
	JNZ    loop

	MINPS  X5, X4              // fold eight lanes to one
	MAXPS  X7, X6
	MOVAPS X4, X0
	MOVAPS X6, X2
	SHUFPS $0x4e, X0, X0       // swap the 64-bit halves
	SHUFPS $0x4e, X2, X2
	MINPS  X0, X4
	MAXPS  X2, X6
	MOVAPS X4, X0
	MOVAPS X6, X2
	SHUFPS $0xb1, X0, X0       // swap neighbouring lanes
	SHUFPS $0xb1, X2, X2
	MINPS  X0, X4
	MAXPS  X2, X6
	MOVSS  X4, minV+16(FP)
	MOVSS  X6, maxV+20(FP)
	RET

// func codesX8(dst *byte, src *float32, n int, scale, bias float32)
//
// dst[i] = clampCode((src[i] - bias) / scale) for i in [0, n); n must be a
// positive multiple of 8. SSE2 only. SUBPS, DIVPS and ADDPS 0.5 are the three
// separately rounded operations of the Go expression, in its order. Go's
// int() of a float32 is CVTTSS2SQ, whose "integer indefinite" for NaN and for
// values ≥ 2⁶³ is negative and clamps to code 0: the CMPPS LT mask sends
// those lanes to +0 first. The rest are clamped to [-1, 256], where the
// 32-bit truncation is exact, and the signed-then-unsigned saturating packs
// map -1 to 0 and 256 to 255, as clampCode does.
TEXT ·codesX8(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	MOVSS  scale+24(FP), X6
	MOVSS  bias+28(FP), X7
	SHUFPS $0, X6, X6
	SHUFPS $0, X7, X7
	MOVL   $0x3f000000, AX     // 0.5
	MOVQ   AX, X8
	SHUFPS $0, X8, X8
	MOVL   $0x5f000000, AX     // 2⁶³
	MOVQ   AX, X9
	SHUFPS $0, X9, X9
	MOVL   $0xbf800000, AX     // -1
	MOVQ   AX, X10
	SHUFPS $0, X10, X10
	MOVL   $0x43800000, AX     // 256
	MOVQ   AX, X11
	SHUFPS $0, X11, X11

loop:
	MOVUPS    (SI), X0
	MOVUPS    16(SI), X1
	SUBPS     X7, X0           // v - bias
	SUBPS     X7, X1
	DIVPS     X6, X0           // / scale
	DIVPS     X6, X1
	ADDPS     X8, X0           // + 0.5
	ADDPS     X8, X1
	MOVAPS    X0, X2
	MOVAPS    X1, X3
	CMPPS     X9, X2, $1       // x < 2⁶³: false for NaN
	CMPPS     X9, X3, $1
	ANDPS     X2, X0
	ANDPS     X3, X1
	MAXPS     X10, X0
	MAXPS     X10, X1
	MINPS     X11, X0
	MINPS     X11, X1
	CVTTPS2PL X0, X0
	CVTTPS2PL X1, X1
	PACKSSLW  X1, X0           // 8 × int16
	PACKUSWB  X0, X0           // 8 × uint8, saturated
	MOVQ      X0, (DI)
	ADDQ      $32, SI
	ADDQ      $8, DI
	SUBQ      $8, CX
	JNZ       loop
	RET
