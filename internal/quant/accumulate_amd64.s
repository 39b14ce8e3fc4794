#include "textflag.h"

// BLOCK adds the eight codes at src (in the row at SI), dequantized, into
// the eight lanes of acc: lane += bias + scale*float32(code), with scale in
// Y8 and bias in Y9 (Y10 scratch). Each lane does the three separately
// rounded operations of the Go expression — VMULPS, VADDPS, VADDPS, never a
// fused multiply-add — so every non-NaN sum is bit-identical to the
// portable loop's.
#define BLOCK(src, acc) \
	VPMOVZXBD src, Y10; \
	VCVTDQ2PS Y10, Y10; \
	VMULPS    Y8, Y10, Y10; \
	VADDPS    Y9, Y10, Y10; \
	VADDPS    Y10, acc, acc

// ROW loads the next row of the list at BX into SI, pointed at its code for
// column col (R8), with its footer's scale and bias (at dim, DX) broadcast
// into Y8 and Y9.
#define ROW \
	MOVQ         (BX), SI; \
	VBROADCASTSS (SI)(DX*1), Y8; \
	VBROADCASTSS 4(SI)(DX*1), Y9; \
	ADDQ         R8, SI; \
	ADDQ         $24, BX

// func poolInt8x8(acc, tail *float32, rows *[]byte, nrows, dim int)
//
// For each of the nrows row slices in order — dim codes, then the float32
// scale and bias — acc[j] += bias + scale*float32(row[j]) for j in
// [0, n = dim&^7) and, when dim is not a multiple of 8, tail[j] += bias +
// scale*float32(row[n+j]) for j in [0, 8): those eight bytes end inside the
// footer, so the tail's lanes from dim−n on are the caller's to drop. nrows
// must be positive, acc address n elements and tail eight, and every row be
// at least dim+8 bytes long. AVX2: the caller runs it only where hasAVX2
// found the CPU and OS support it.
//
// The caller has prefetched every row (Prefetch), so that the rows'
// first-touch misses are all in flight together. Columns go in blocks of
// 64, and the last 0–7 blocks of 8 with the tail in one more pass: a
// block's accumulators stay in registers across all the rows, so acc is
// read and written once per pass rather than once per row, and the rows'
// loads depend on nothing before them. The row term is added to the running
// sum in row order, as one AccumulateRow per row would. All memory accesses
// are unaligned-safe.
TEXT ·poolInt8x8(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ tail+8(FP), R12
	MOVQ rows+16(FP), AX
	MOVQ nrows+24(FP), R9
	MOVQ dim+32(FP), DX
	MOVQ DX, R10
	ANDQ $-8, R10             // R10: columns left for acc
	XORQ R8, R8               // R8: the next column

wide:
	CMPQ    R10, $64
	JLT     rest
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	MOVQ    AX, BX
	MOVQ    R9, CX

wideRow:
	ROW
	BLOCK(0(SI), Y0)
	BLOCK(8(SI), Y1)
	BLOCK(16(SI), Y2)
	BLOCK(24(SI), Y3)
	BLOCK(32(SI), Y4)
	BLOCK(40(SI), Y5)
	BLOCK(48(SI), Y6)
	BLOCK(56(SI), Y7)
	DECQ CX
	JNZ  wideRow

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $64, R8
	SUBQ    $64, R10
	JMP     wide

	// R10 is a multiple of 8 below 64 and R13 the tail's width (0–7); the
	// tail block reads the codes from column R8+R10 on into Y7.
rest:
	MOVQ DX, R13
	ANDQ $7, R13
	MOVQ R10, R11
	ORQ  R13, R11
	JZ   done
	CMPQ R10, $8
	JLT  loadTail
	VMOVUPS (DI), Y0
	CMPQ R10, $16
	JLT  loadTail
	VMOVUPS 32(DI), Y1
	CMPQ R10, $24
	JLT  loadTail
	VMOVUPS 64(DI), Y2
	CMPQ R10, $32
	JLT  loadTail
	VMOVUPS 96(DI), Y3
	CMPQ R10, $40
	JLT  loadTail
	VMOVUPS 128(DI), Y4
	CMPQ R10, $48
	JLT  loadTail
	VMOVUPS 160(DI), Y5
	CMPQ R10, $56
	JLT  loadTail
	VMOVUPS 192(DI), Y6

loadTail:
	TESTQ   R13, R13
	JZ      restRows
	VMOVUPS (R12), Y7

restRows:
	MOVQ AX, BX
	MOVQ R9, CX

restRow:
	ROW
	CMPQ R10, $8
	JLT  restTail
	BLOCK(0(SI), Y0)
	CMPQ R10, $16
	JLT  restTail
	BLOCK(8(SI), Y1)
	CMPQ R10, $24
	JLT  restTail
	BLOCK(16(SI), Y2)
	CMPQ R10, $32
	JLT  restTail
	BLOCK(24(SI), Y3)
	CMPQ R10, $40
	JLT  restTail
	BLOCK(32(SI), Y4)
	CMPQ R10, $48
	JLT  restTail
	BLOCK(40(SI), Y5)
	CMPQ R10, $56
	JLT  restTail
	BLOCK(48(SI), Y6)

restTail:
	TESTQ R13, R13
	JZ    restNext
	BLOCK((SI)(R10*1), Y7)

restNext:
	DECQ CX
	JNZ  restRow

	CMPQ    R10, $8
	JLT     storeTail
	VMOVUPS Y0, (DI)
	CMPQ    R10, $16
	JLT     storeTail
	VMOVUPS Y1, 32(DI)
	CMPQ    R10, $24
	JLT     storeTail
	VMOVUPS Y2, 64(DI)
	CMPQ    R10, $32
	JLT     storeTail
	VMOVUPS Y3, 96(DI)
	CMPQ    R10, $40
	JLT     storeTail
	VMOVUPS Y4, 128(DI)
	CMPQ    R10, $48
	JLT     storeTail
	VMOVUPS Y5, 160(DI)
	CMPQ    R10, $56
	JLT     storeTail
	VMOVUPS Y6, 192(DI)

storeTail:
	TESTQ   R13, R13
	JZ      done
	VMOVUPS Y7, (R12)

done:
	VZEROUPPER
	RET

// func hasAVX2() bool
//
// Whether the CPU has AVX2 and the OS saves the ymm registers:
// CPUID.1:ECX has OSXSAVE (bit 27) and AVX (bit 28), XGETBV(0) has the SSE
// and AVX state bits (1 and 2), and leaf 7 exists with AVX2 in
// CPUID.(7,0):EBX bit 5.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JLT   no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $(1<<27|1<<28), CX
	CMPL  CX, $(1<<27|1<<28)
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	SHRL  $5, BX
	ANDL  $1, BX
	MOVB  BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
