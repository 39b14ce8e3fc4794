#include "textflag.h"

// func Prefetch(rows [][]byte)
//
// PREFETCHT0 on every cache line of every non-empty row: from the row's
// first byte in 64-byte steps, then its last byte, so a row that starts or
// ends mid-line is covered. A prefetch never faults and nothing waits for it.
TEXT ·Prefetch(SB), NOSPLIT, $0-24
	MOVQ rows_base+0(FP), BX
	MOVQ rows_len+8(FP), CX
	TESTQ CX, CX
	JZ   done

row:
	MOVQ  8(BX), DX
	TESTQ DX, DX
	JZ    next
	MOVQ  (BX), SI
	LEAQ  -1(SI)(DX*1), R11   // the row's last byte

line:
	PREFETCHT0 (SI)
	ADDQ       $64, SI
	CMPQ       SI, R11
	JLT        line
	PREFETCHT0 (R11)

next:
	ADDQ $24, BX
	DECQ CX
	JNZ  row

done:
	RET
