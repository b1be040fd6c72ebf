#include "textflag.h"

// The AVX kernels. The packed loops of the lane program, its tail, the
// broadcast and exp run eight lanes per instruction with AVX-512F, else
// four, and the other kernels' four; the 4-lane and scalar loops run the
// lanes left over, with the same operations in the same operand order:
// Go's VSUBPD src2, src1, dst computes src1 − src2.
// Every loop head is aligned to 32 bytes, so where the linker places a
// kernel cannot change how its loops run. Each kernel clears the YMM and
// ZMM registers' upper bits before it returns (it uses none past Z15), so
// the SSE code Go emits pays no transition.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// one is 1.0 in eight lanes: the true of Less.
DATA one<>+0(SB)/8, $1.0
DATA one<>+8(SB)/8, $1.0
DATA one<>+16(SB)/8, $1.0
DATA one<>+24(SB)/8, $1.0
DATA one<>+32(SB)/8, $1.0
DATA one<>+40(SB)/8, $1.0
DATA one<>+48(SB)/8, $1.0
DATA one<>+56(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $64

// END8 sets r to n rounded down to eight lanes, where the 8-lane loops end,
// if zmm is set, and else to zero, so that they run no lane. tmp is
// scratch.
#define END8(n, r, tmp) \
	MOVQ    n, r; \
	ANDQ    $-8, r; \
	MOVBQZX ·zmm(SB), tmp; \
	NEGQ    tmp; \
	ANDQ    tmp, r

// LOOP runs BODY(V0, V1, V7) W lanes at a time, from lane BX up to END,
// from a loop head aligned to 32 bytes, and then goes on at exit. No label
// may stand right before a PCALIGN: Go's assembler resolved a jump to such
// a label to the padding ahead of the loop it was to skip.
#define LOOP(BODY, V0, V1, V7, W, END, top, exit) \
	CMPQ BX, END; \
	JGE  exit; \
	PCALIGN $32; \
top: \
	BODY(V0, V1, V7); \
	ADDQ $W, BX; \
	CMPQ BX, END; \
	JLT  top

// PACKED runs a packed body at both widths, on ZMM registers up to lane
// END, eight lanes at a time, then on YMM registers up to lane R9, four at
// a time, and goes on at exit; top8, top4 and mid are its own labels. So
// each body is written once, over its registers V0, V1 and V7.
#define PACKED(BODY, END, top8, mid, top4, exit) \
	LOOP(BODY, Z0, Z1, Z7, 8, END, top8, mid); \
mid: \
	LOOP(BODY, Y0, Y1, Y7, 4, R9, top4, exit)

// The packed bodies of the lane program: R10–R14 hold the rows d, a, b, c
// and e, and BX the lane. The tail kernels use OPMUL too, with the row at
// M in R10.

// d = a + b
#define OPADD(V0, V1, V7) \
	VMOVUPD (R11)(BX*8), V0; \
	VADDPD  (R12)(BX*8), V0, V0; \
	VMOVUPD V0, (R10)(BX*8)

// d = a − b
#define OPSUB(V0, V1, V7) \
	VMOVUPD (R11)(BX*8), V0; \
	VSUBPD  (R12)(BX*8), V0, V0; \
	VMOVUPD V0, (R10)(BX*8)

// d = a·b
#define OPMUL(V0, V1, V7) \
	VMOVUPD (R11)(BX*8), V0; \
	VMULPD  (R12)(BX*8), V0, V0; \
	VMOVUPD V0, (R10)(BX*8)

// d = a·b + c
#define OPMULADD(V0, V1, V7) \
	VMOVUPD (R11)(BX*8), V0; \
	VMULPD  (R12)(BX*8), V0, V0; \
	VADDPD  (R13)(BX*8), V0, V0; \
	VMOVUPD V0, (R10)(BX*8)

// d = a + b·c
#define OPADDMUL(V0, V1, V7) \
	VMOVUPD (R12)(BX*8), V1; \
	VMULPD  (R13)(BX*8), V1, V1; \
	VMOVUPD (R11)(BX*8), V0; \
	VADDPD  V1, V0, V0; \
	VMOVUPD V0, (R10)(BX*8)

// d = a·b + c·e
#define OPMULMULADD(V0, V1, V7) \
	VMOVUPD (R11)(BX*8), V0; \
	VMULPD  (R12)(BX*8), V0, V0; \
	VMOVUPD (R13)(BX*8), V1; \
	VMULPD  (R14)(BX*8), V1, V1; \
	VADDPD  V1, V0, V0; \
	VMOVUPD V0, (R10)(BX*8)

// Select and Less compare into a mask: a K register on ZMM, a vector of
// all-ones or zero lanes on YMM, so each has a body per width. Predicate
// 4, NEQ_UQ, is Go's !=, true on NaN; 0x11, LT_OQ, is Go's <, false on
// NaN. X15 (so Y15 and Z15) is zero.

// d = b if a ≠ 0, else c: c, then b merged in where the mask is set.
#define OPSELECT8(V0, V1, V7) \
	VCMPPD  $4, (R11)(BX*8), Z15, K1; \
	VMOVUPD (R13)(BX*8), V1; \
	VMOVUPD (R12)(BX*8), K1, V1; \
	VMOVUPD V1, (R10)(BX*8)

#define OPSELECT4(V0, V1, V7) \
	VCMPPD    $4, (R11)(BX*8), Y15, V0; \
	VMOVUPD   (R13)(BX*8), V1; \
	VBLENDVPD V0, (R12)(BX*8), V1, V1; \
	VMOVUPD   V1, (R10)(BX*8)

// d = 1 if a < b, else +0: 1.0 loaded where the mask is set, zero
// elsewhere.
#define OPLESS8(V0, V1, V7) \
	VMOVUPD   (R11)(BX*8), V0; \
	VCMPPD    $0x11, (R12)(BX*8), V0, K1; \
	VMOVUPD.Z one<>(SB), K1, V0; \
	VMOVUPD   V0, (R10)(BX*8)

#define OPLESS4(V0, V1, V7) \
	VMOVUPD (R11)(BX*8), V0; \
	VCMPPD  $0x11, (R12)(BX*8), V0, V0; \
	VANDPD  one<>(SB), V0, V0; \
	VMOVUPD V0, (R10)(BX*8)

// func runAVX(vals []float64, prog []Instr, n int)
//
// DI vals, SI the instruction, R8 instructions left, CX n, DX and R9 the
// ends of the 8- and 4-lane loops, BX the lane; R10–R14 the rows d, a, b,
// c, e; X15 zero.
TEXT ·runAVX(SB), NOSPLIT, $0-56
	MOVQ vals_base+0(FP), DI
	MOVQ prog_base+24(FP), SI
	MOVQ prog_len+32(FP), R8
	MOVQ n+48(FP), CX
	MOVQ CX, R9
	ANDQ $-4, R9
	END8(CX, DX, AX)
	VXORPD X15, X15, X15
	TESTQ R8, R8
	JZ   run_done

	PCALIGN $32
run_instr:
	MOVL    0(SI), AX
	MOVLQSX 4(SI), R10
	MOVLQSX 8(SI), R11
	MOVLQSX 12(SI), R12
	MOVLQSX 16(SI), R13
	MOVLQSX 20(SI), R14
	LEAQ    (DI)(R10*8), R10
	LEAQ    (DI)(R11*8), R11
	LEAQ    (DI)(R12*8), R12
	LEAQ    (DI)(R13*8), R13
	LEAQ    (DI)(R14*8), R14
	XORQ    BX, BX
	CMPL    AX, $3
	JEQ     muladd
	CMPL    AX, $5
	JEQ     mulmuladd
	CMPL    AX, $4
	JEQ     addmul
	CMPL    AX, $2
	JEQ     mul
	CMPL    AX, $0
	JEQ     add
	CMPL    AX, $1
	JEQ     sub
	CMPL    AX, $6
	JEQ     select
	CMPL    AX, $7
	JEQ     less
	JMP     run_next

muladd:
	PACKED(OPMULADD, DX, muladd8, muladd_mid, muladd4, muladd1)
	PCALIGN $32
muladd1:
	CMPQ   BX, CX
	JGE    run_next
	VMOVSD (R11)(BX*8), X0
	VMULSD (R12)(BX*8), X0, X0
	VADDSD (R13)(BX*8), X0, X0
	VMOVSD X0, (R10)(BX*8)
	INCQ   BX
	JMP    muladd1

mulmuladd:
	PACKED(OPMULMULADD, DX, mulmuladd8, mulmuladd_mid, mulmuladd4, mulmuladd1)
	PCALIGN $32
mulmuladd1:
	CMPQ   BX, CX
	JGE    run_next
	VMOVSD (R11)(BX*8), X0
	VMULSD (R12)(BX*8), X0, X0
	VMOVSD (R13)(BX*8), X1
	VMULSD (R14)(BX*8), X1, X1
	VADDSD X1, X0, X0
	VMOVSD X0, (R10)(BX*8)
	INCQ   BX
	JMP    mulmuladd1

addmul:
	PACKED(OPADDMUL, DX, addmul8, addmul_mid, addmul4, addmul1)
	PCALIGN $32
addmul1:
	CMPQ   BX, CX
	JGE    run_next
	VMOVSD (R12)(BX*8), X1
	VMULSD (R13)(BX*8), X1, X1
	VMOVSD (R11)(BX*8), X0
	VADDSD X1, X0, X0
	VMOVSD X0, (R10)(BX*8)
	INCQ   BX
	JMP    addmul1

mul:
	PACKED(OPMUL, DX, mul8, mul_mid, mul4, mul1)
	PCALIGN $32
mul1:
	CMPQ   BX, CX
	JGE    run_next
	VMOVSD (R11)(BX*8), X0
	VMULSD (R12)(BX*8), X0, X0
	VMOVSD X0, (R10)(BX*8)
	INCQ   BX
	JMP    mul1

add:
	PACKED(OPADD, DX, add8, add_mid, add4, add1)
	PCALIGN $32
add1:
	CMPQ   BX, CX
	JGE    run_next
	VMOVSD (R11)(BX*8), X0
	VADDSD (R12)(BX*8), X0, X0
	VMOVSD X0, (R10)(BX*8)
	INCQ   BX
	JMP    add1

sub:
	PACKED(OPSUB, DX, sub8, sub_mid, sub4, sub1)
	PCALIGN $32
sub1:
	CMPQ   BX, CX
	JGE    run_next
	VMOVSD (R11)(BX*8), X0
	VSUBSD (R12)(BX*8), X0, X0
	VMOVSD X0, (R10)(BX*8)
	INCQ   BX
	JMP    sub1

select:
	LOOP(OPSELECT8, Z0, Z1, Z7, 8, DX, select8, select_mid)
select_mid:
	LOOP(OPSELECT4, Y0, Y1, Y7, 4, R9, select4, select1)
	PCALIGN $32
select1:
	CMPQ      BX, CX
	JGE       run_next
	VCMPSD    $4, (R11)(BX*8), X15, X0
	VMOVSD    (R13)(BX*8), X1
	VMOVSD    (R12)(BX*8), X2
	VBLENDVPD X0, X2, X1, X1
	VMOVSD    X1, (R10)(BX*8)
	INCQ      BX
	JMP       select1

less:
	LOOP(OPLESS8, Z0, Z1, Z7, 8, DX, less8, less_mid)
less_mid:
	LOOP(OPLESS4, Y0, Y1, Y7, 4, R9, less4, less1)
	PCALIGN $32
less1:
	CMPQ   BX, CX
	JGE    run_next
	VMOVSD (R11)(BX*8), X0
	VCMPSD $0x11, (R12)(BX*8), X0, X0
	VANDPD one<>(SB), X0, X0
	VMOVSD X0, (R10)(BX*8)
	INCQ   BX
	JMP    less1

run_next:
	ADDQ $24, SI
	DECQ R8
	JNZ  run_instr

run_done:
	VZEROUPPER
	RET

// TAIL loads a tail row's operands: R10 the row at M plus DX floats, R11 a
// and R12 b, from the Product at SI; BX the first lane.
#define TAIL \
	MOVLQSX 0(SI), R10; \
	ADDQ    DX, R10; \
	MOVLQSX 4(SI), R11; \
	MOVLQSX 8(SI), R12; \
	LEAQ    (DI)(R10*8), R10; \
	LEAQ    (DI)(R11*8), R11; \
	LEAQ    (DI)(R12*8), R12; \
	XORQ    BX, BX

// m ← m − lr·(a·b), lr in V7
#define OPSTEP(V0, V1, V7) \
	VMOVUPD (R11)(BX*8), V0; \
	VMULPD  (R12)(BX*8), V0, V0; \
	VMULPD  V0, V7, V0; \
	VMOVUPD (R10)(BX*8), V1; \
	VSUBPD  V0, V1, V1; \
	VMOVUPD V1, (R10)(BX*8)

// s ← s + a·b
#define OPSUM(V0, V1, V7) \
	VMOVUPD (R11)(BX*8), V0; \
	VMULPD  (R12)(BX*8), V0, V0; \
	VMOVUPD (R10)(BX*8), V1; \
	VADDPD  V0, V1, V1; \
	VMOVUPD V1, (R10)(BX*8)

// func stepAVX(vals []float64, tail []Product, n int, lr float64)
//
// m ← m − lr·(a·b); Y7, or Z7 where the 8-lane loop runs, holds lr in
// every lane. R13 and R9 are the ends of the 8- and 4-lane loops.
TEXT ·stepAVX(SB), NOSPLIT, $0-64
	MOVQ vals_base+0(FP), DI
	MOVQ tail_base+24(FP), SI
	MOVQ tail_len+32(FP), R8
	MOVQ n+48(FP), CX
	VBROADCASTSD lr+56(FP), Y7
	XORQ DX, DX
	MOVQ CX, R9
	ANDQ $-4, R9
	END8(CX, R13, AX)
	TESTQ R13, R13
	JZ    step_rows
	VBROADCASTSD lr+56(FP), Z7

step_rows:
	TESTQ R8, R8
	JZ   step_done

	PCALIGN $32
step_row:
	TAIL
	PACKED(OPSTEP, R13, step8, step_mid, step4, step1)
	PCALIGN $32
step1:
	CMPQ   BX, CX
	JGE    step_next
	VMOVSD (R11)(BX*8), X0
	VMULSD (R12)(BX*8), X0, X0
	VMULSD X0, X7, X0
	VMOVSD (R10)(BX*8), X1
	VSUBSD X0, X1, X1
	VMOVSD X1, (R10)(BX*8)
	INCQ   BX
	JMP    step1

step_next:
	ADDQ $12, SI
	DECQ R8
	JNZ  step_row

step_done:
	VZEROUPPER
	RET

// func sumAVX(vals []float64, tail []Product, shift, n int)
//
// s ← s + a·b, s at M + shift. R13 and R9 are the ends of the 8- and
// 4-lane loops.
TEXT ·sumAVX(SB), NOSPLIT, $0-64
	MOVQ vals_base+0(FP), DI
	MOVQ tail_base+24(FP), SI
	MOVQ tail_len+32(FP), R8
	MOVQ shift+48(FP), DX
	MOVQ n+56(FP), CX
	MOVQ CX, R9
	ANDQ $-4, R9
	END8(CX, R13, AX)
	TESTQ R8, R8
	JZ   sum_done

	PCALIGN $32
sum_row:
	TAIL
	PACKED(OPSUM, R13, sum8, sum_mid, sum4, sum1)
	PCALIGN $32
sum1:
	CMPQ   BX, CX
	JGE    sum_next
	VMOVSD (R11)(BX*8), X0
	VMULSD (R12)(BX*8), X0, X0
	VMOVSD (R10)(BX*8), X1
	VADDSD X0, X1, X1
	VMOVSD X1, (R10)(BX*8)
	INCQ   BX
	JMP    sum1

sum_next:
	ADDQ $12, SI
	DECQ R8
	JNZ  sum_row

sum_done:
	VZEROUPPER
	RET

// func prodAVX(vals []float64, tail []Product, shift, n int)
//
// d ← a·b, d at M + shift. R13 and R9 are the ends of the 8- and 4-lane
// loops.
TEXT ·prodAVX(SB), NOSPLIT, $0-64
	MOVQ vals_base+0(FP), DI
	MOVQ tail_base+24(FP), SI
	MOVQ tail_len+32(FP), R8
	MOVQ shift+48(FP), DX
	MOVQ n+56(FP), CX
	MOVQ CX, R9
	ANDQ $-4, R9
	END8(CX, R13, AX)
	TESTQ R8, R8
	JZ   prod_done

	PCALIGN $32
prod_row:
	TAIL
	PACKED(OPMUL, R13, prod8, prod_mid, prod4, prod1)
	PCALIGN $32
prod1:
	CMPQ   BX, CX
	JGE    prod_next
	VMOVSD (R11)(BX*8), X0
	VMULSD (R12)(BX*8), X0, X0
	VMOVSD X0, (R10)(BX*8)
	INCQ   BX
	JMP    prod1

prod_next:
	ADDQ $12, SI
	DECQ R8
	JNZ  prod_row

prod_done:
	VZEROUPPER
	RET

// row ← v in every lane
#define OPBCAST(V0, V1, V7) \
	VMOVUPD V0, (DI)(BX*8)

// func broadcastAVX(dst, src []float64, w int)
//
// DI the row, SI the element, R8 elements left, CX w, DX and R9 the ends of
// the 8- and 4-lane loops, BX the lane. The element goes to every lane of
// Z0 where the 8-lane loop runs, else of Y0.
TEXT ·broadcastAVX(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), R8
	MOVQ w+48(FP), CX
	MOVQ CX, R9
	ANDQ $-4, R9
	END8(CX, DX, AX)
	TESTQ R8, R8
	JZ   bc_done

	PCALIGN $32
bc_row:
	TESTQ DX, DX
	JZ    bc_ymm
	VBROADCASTSD (SI), Z0
	JMP   bc_lanes
bc_ymm:
	VBROADCASTSD (SI), Y0
bc_lanes:
	XORQ BX, BX
	PACKED(OPBCAST, DX, bc8, bc_mid, bc4, bc1)
	PCALIGN $32
bc1:
	CMPQ   BX, CX
	JGE    bc_next
	VMOVSD X0, (DI)(BX*8)
	INCQ   BX
	JMP    bc1

bc_next:
	LEAQ (DI)(CX*8), DI
	ADDQ $8, SI
	DECQ R8
	JNZ  bc_row

bc_done:
	VZEROUPPER
	RET

// func transposeAVX(dst []float64, w int, src [][]float64, off, count int)
//
// Four lanes at a time: their sources' words j … j+3, loaded as the halves
// of four vectors and unpacked, are four rows of the four lanes, each one
// 32-byte store. The words past a multiple of four go one row at a time,
// and the lanes past a multiple of four one word at a time.
//
// DI the lanes' first row, SI their source headers, R8 lane quads (then
// lanes) left, R14 the row stride in bytes, DX off in bytes, CX count, R9
// count rounded down to four words, BX the word, AX its row; R10–R13 the
// four lanes' sources.
TEXT ·transposeAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ w+24(FP), R14
	SHLQ $3, R14
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), R8
	MOVQ off+56(FP), DX
	SHLQ $3, DX
	MOVQ count+64(FP), CX
	MOVQ CX, R9
	ANDQ $-4, R9
	SHRQ $2, R8
	JZ   tr_lanes

	PCALIGN $32
tr_quad:
	MOVQ 0(SI), R10
	MOVQ 24(SI), R11
	MOVQ 48(SI), R12
	MOVQ 72(SI), R13
	ADDQ DX, R10
	ADDQ DX, R11
	ADDQ DX, R12
	ADDQ DX, R13
	MOVQ DI, AX
	XORQ BX, BX
	CMPQ BX, R9
	JGE  tr_quad1
	PCALIGN $32
tr_quad4:
	VMOVUPD     (R10)(BX*8), X4
	VINSERTF128 $1, (R12)(BX*8), Y4, Y4
	VMOVUPD     (R11)(BX*8), X5
	VINSERTF128 $1, (R13)(BX*8), Y5, Y5
	VMOVUPD     16(R10)(BX*8), X6
	VINSERTF128 $1, 16(R12)(BX*8), Y6, Y6
	VMOVUPD     16(R11)(BX*8), X7
	VINSERTF128 $1, 16(R13)(BX*8), Y7, Y7
	VUNPCKLPD   Y5, Y4, Y0
	VUNPCKHPD   Y5, Y4, Y1
	VUNPCKLPD   Y7, Y6, Y2
	VUNPCKHPD   Y7, Y6, Y3
	VMOVUPD     Y0, (AX)
	VMOVUPD     Y1, (AX)(R14*1)
	LEAQ        (AX)(R14*2), AX
	VMOVUPD     Y2, (AX)
	VMOVUPD     Y3, (AX)(R14*1)
	LEAQ        (AX)(R14*2), AX
	ADDQ        $4, BX
	CMPQ        BX, R9
	JLT         tr_quad4
	PCALIGN $32
tr_quad1:
	CMPQ        BX, CX
	JGE         tr_quad_next
	VMOVSD      (R10)(BX*8), X4
	VMOVHPD     (R11)(BX*8), X4, X4
	VMOVSD      (R12)(BX*8), X5
	VMOVHPD     (R13)(BX*8), X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	VMOVUPD     Y4, (AX)
	ADDQ        R14, AX
	INCQ        BX
	JMP         tr_quad1

tr_quad_next:
	ADDQ $96, SI
	ADDQ $32, DI
	DECQ R8
	JNZ  tr_quad

tr_lanes:
	MOVQ src_len+40(FP), R8
	ANDQ $3, R8
	JZ   tr_done
	PCALIGN $32
tr_lane:
	MOVQ 0(SI), R10
	ADDQ DX, R10
	MOVQ DI, AX
	XORQ BX, BX
tr_lane1:
	CMPQ BX, CX
	JGE  tr_lane_next
	MOVQ (R10)(BX*8), R11
	MOVQ R11, (AX)
	ADDQ R14, AX
	INCQ BX
	JMP  tr_lane1

tr_lane_next:
	ADDQ $24, SI
	ADDQ $8, DI
	DECQ R8
	JNZ  tr_lane

tr_done:
	VZEROUPPER
	RET

// QUAD adds four lanes of the four rows from G (R8 bytes apart, R9 = 3·R8)
// to ACC, lane by lane: a 4×4 transpose turns the rows' lanes l … l+3 into
// four vectors, each holding one lane of every row, and ACC adds them in
// lane order. Y4–Y8 are scratch.
#define QUAD(G, ACC) \
	VMOVUPD     (G), X4; \
	VINSERTF128 $1, (G)(R8*2), Y4, Y4; \
	VMOVUPD     (G)(R8*1), X5; \
	VINSERTF128 $1, (G)(R9*1), Y5, Y5; \
	VMOVUPD     16(G), X6; \
	VINSERTF128 $1, 16(G)(R8*2), Y6, Y6; \
	VMOVUPD     16(G)(R8*1), X7; \
	VINSERTF128 $1, 16(G)(R9*1), Y7, Y7; \
	VUNPCKLPD   Y5, Y4, Y8; \
	VUNPCKHPD   Y5, Y4, Y4; \
	VADDPD      Y8, ACC, ACC; \
	VADDPD      Y4, ACC, ACC; \
	VUNPCKLPD   Y7, Y6, Y8; \
	VUNPCKHPD   Y7, Y6, Y6; \
	VADDPD      Y8, ACC, ACC; \
	VADDPD      Y6, ACC, ACC

// LANE adds one lane of the four rows from G to ACC. Y4 and Y5 are scratch.
#define LANE(G, ACC) \
	VMOVSD      (G), X4; \
	VMOVHPD     (G)(R8*1), X4, X4; \
	VMOVSD      (G)(R8*2), X5; \
	VMOVHPD     (G)(R9*1), X5, X5; \
	VINSERTF128 $1, X5, Y4, Y4; \
	VADDPD      Y4, ACC, ACC

// func addLanesAVX(acc, rows []float64, stride, count int)
//
// DI the accumulators, CX words left, SI the first word's row, R8 the
// stride in bytes, R9 three strides, AX four strides (a word quad), R10 the
// lane quads, R11 the lanes past them, DX a lane counter. Sixteen words at
// a time keep four independent add chains in flight; then four words, one
// chain; then word by word.
TEXT ·addLanesAVX(SB), NOSPLIT, $0-64
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ rows_base+24(FP), SI
	MOVQ stride+48(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	MOVQ R8, AX
	SHLQ $2, AX
	MOVQ count+56(FP), R10
	MOVQ R10, R11
	SHRQ $2, R10
	ANDQ $3, R11
	CMPQ CX, $16
	JLT  quad

	PCALIGN $32
hex:
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    SI, R12
	LEAQ    (SI)(AX*1), R13
	LEAQ    (R13)(AX*1), R14
	LEAQ    (R14)(AX*1), BX
	MOVQ    R10, DX
	TESTQ   DX, DX
	JZ      hex_rest
	PCALIGN $32
hex_quads:
	QUAD(R12, Y0)
	QUAD(R13, Y1)
	QUAD(R14, Y2)
	QUAD(BX, Y3)
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $32, R14
	ADDQ $32, BX
	DECQ DX
	JNZ  hex_quads
hex_rest:
	MOVQ  R11, DX
	TESTQ DX, DX
	JZ    hex_store
	PCALIGN $32
hex_lanes:
	LANE(R12, Y0)
	LANE(R13, Y1)
	LANE(R14, Y2)
	LANE(BX, Y3)
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $8, R14
	ADDQ $8, BX
	DECQ DX
	JNZ  hex_lanes
hex_store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	LEAQ    (SI)(AX*4), SI
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     hex

	PCALIGN $32
quad:
	CMPQ    CX, $4
	JLT     single
	VMOVUPD (DI), Y0
	MOVQ    SI, R12
	MOVQ    R10, DX
	TESTQ   DX, DX
	JZ      quad_rest
	PCALIGN $32
quad_quads:
	QUAD(R12, Y0)
	ADDQ $32, R12
	DECQ DX
	JNZ  quad_quads
quad_rest:
	MOVQ  R11, DX
	TESTQ DX, DX
	JZ    quad_store
	PCALIGN $32
quad_lanes:
	LANE(R12, Y0)
	ADDQ $8, R12
	DECQ DX
	JNZ  quad_lanes
quad_store:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    AX, SI
	SUBQ    $4, CX
	JMP     quad

single:
	MOVQ count+56(FP), R10
	PCALIGN $32
single_word:
	TESTQ  CX, CX
	JZ     add_done
	VMOVSD (DI), X0
	MOVQ   SI, R12
	MOVQ   R10, DX
	TESTQ  DX, DX
	JZ     single_store
	PCALIGN $32
single_lanes:
	VADDSD (R12), X0, X0
	ADDQ   $8, R12
	DECQ   DX
	JNZ    single_lanes
single_store:
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   R8, SI
	DECQ   CX
	JMP    single_word

add_done:
	VZEROUPPER
	RET

// The exp kernels port the FMA branch of math.Exp's amd64 assembly
// (archExp, after Shibata's SLEEF method), the branch math.Exp takes on a
// CPU with AVX and FMA, to four lanes per instruction, or eight with
// AVX-512F, each scalar operation to its packed twin with the same operand
// order and rounding: k = round(x·log2e) by the MXCSR, r = (x − k·ln2U −
// k·ln2L) / 16, the degree-8 Taylor polynomial, four squarings (2 + r)·r,
// and the exponent insert 2^k, contracting exactly the products archExp
// contracts. A lane whose biased exponent k + 1023 leaves (0, 0x7ff) — a
// non-finite input converts to the integer indefinite, a negative k — is
// outside the packed domain: archExp takes its overflow or denormal branch
// there, and the caller recomputes the lane with math.Exp.

// expc holds each constant four times, one 32-byte vector apiece, so the
// 4-lane kernel reads them as memory operands; the 8-lane one broadcasts
// the first.
#define EXPC(off, v) \
	DATA expc<>+(off)(SB)/8, v; \
	DATA expc<>+(off+8)(SB)/8, v; \
	DATA expc<>+(off+16)(SB)/8, v; \
	DATA expc<>+(off+24)(SB)/8, v

#define LOG2E 0
#define LN2U 32
#define LN2L 64
#define SIXTEENTH 96
#define C8 128
#define C7 160
#define C6 192
#define C5 224
#define C4 256
#define C3 288
#define HALF 320
#define ONE 352
#define TWO 384
#define SIGN 416
#define BIAS 448 // 1023 in four int32 lanes
#define EMAX 464 // 0x7fe in four int32 lanes
#define BIAS64 480 // 1023 in one int64 lane, for a broadcast
#define EMAX64 488 // 0x7fe in one int64 lane

EXPC(LOG2E, $1.4426950408889634073599246810018920)
EXPC(LN2U, $0.69314718055966295651160180568695068359375)
EXPC(LN2L, $0.28235290563031577122588448175013436025525412068e-12)
EXPC(SIXTEENTH, $0.0625)
EXPC(C8, $2.4801587301587301587e-5)
EXPC(C7, $1.9841269841269841270e-4)
EXPC(C6, $1.3888888888888888889e-3)
EXPC(C5, $8.3333333333333333333e-3)
EXPC(C4, $4.1666666666666666667e-2)
EXPC(C3, $1.6666666666666666667e-1)
EXPC(HALF, $0.5)
EXPC(ONE, $1.0)
EXPC(TWO, $2.0)
EXPC(SIGN, $0x8000000000000000)
DATA expc<>+(BIAS)(SB)/8, $0x000003ff000003ff
DATA expc<>+(BIAS+8)(SB)/8, $0x000003ff000003ff
DATA expc<>+(EMAX)(SB)/8, $0x000007fe000007fe
DATA expc<>+(EMAX+8)(SB)/8, $0x000007fe000007fe
DATA expc<>+(BIAS64)(SB)/8, $1023
DATA expc<>+(EMAX64)(SB)/8, $0x7fe
GLOBL expc<>(SB), RODATA|NOPTR, $496

// func expAVX(dst, src []float64, form expForm) (done, out int)
//
// Runs the lanes of src, a multiple of the group, in groups of eight lanes
// where zmm is set, else four: each group reads src and writes dst, so the
// two may be the same row. It returns after the last group, or after the
// first group with lanes outside the packed domain: done is the lanes run,
// and out has bit l set for each lane l of the last group that the kernel
// left unwritten.
//
// DI dst, SI src, CX the lanes, BX the lane, DX the form;
// Y0 the argument and then the result, Y1 k, X3 k + 1023, X6 the lanes in
// the domain (AX its bits), X15 zero. The 8-lane groups hold the same in
// Z0, Z1, Z3 (k + 1023 in int64 lanes) and K1.
TEXT ·expAVX(SB), NOSPLIT, $0-72
	MOVQ    dst_base+0(FP), DI
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), CX
	MOVQ    form+48(FP), DX
	XORQ    BX, BX
	XORQ    AX, AX
	VXORPD  X15, X15, X15
	TESTQ   CX, CX
	JZ      exp_done
	CMPB    ·zmm(SB), $0
	JNE     exp8_group

	PCALIGN $32
exp_group:
	VMOVUPD (SI)(BX*8), Y0
	CMPQ    DX, $1
	JLT     exp_arg
	JEQ     exp_neg
	VMULPD  Y0, Y0, Y0 // Gaussian: −(x·x)
exp_neg:
	VXORPD expc<>+SIGN(SB), Y0, Y0

exp_arg:
	VMULPD       expc<>+LOG2E(SB), Y0, Y1
	VCVTPD2DQY   Y1, X2
	VCVTDQ2PD    X2, Y1
	VPADDD       expc<>+BIAS(SB), X2, X3
	VPCMPGTD     X15, X3, X4             // k + 1023 > 0
	VPCMPGTD     expc<>+EMAX(SB), X3, X5 // k + 1023 > 0x7fe
	VPANDN       X4, X5, X6
	VMOVMSKPS    X6, AX
	VFNMADD231PD expc<>+LN2U(SB), Y1, Y0
	VFNMADD231PD expc<>+LN2L(SB), Y1, Y0
	VMULPD       expc<>+SIXTEENTH(SB), Y0, Y0
	VMOVUPD      expc<>+C8(SB), Y2
	VFMADD213PD  expc<>+C7(SB), Y0, Y2
	VFMADD213PD  expc<>+C6(SB), Y0, Y2
	VFMADD213PD  expc<>+C5(SB), Y0, Y2
	VFMADD213PD  expc<>+C4(SB), Y0, Y2
	VFMADD213PD  expc<>+C3(SB), Y0, Y2
	VFMADD213PD  expc<>+HALF(SB), Y0, Y2
	VFMADD213PD  expc<>+ONE(SB), Y0, Y2
	VMULPD       Y2, Y0, Y0
	VADDPD       expc<>+TWO(SB), Y0, Y2
	VMULPD       Y2, Y0, Y0
	VADDPD       expc<>+TWO(SB), Y0, Y2
	VMULPD       Y2, Y0, Y0
	VADDPD       expc<>+TWO(SB), Y0, Y2
	VMULPD       Y2, Y0, Y0
	VADDPD       expc<>+TWO(SB), Y0, Y2
	VFMADD213PD  expc<>+ONE(SB), Y2, Y0

	// 2^k: k + 1023 into each lane's exponent field, from 128-bit halves.
	VPSLLD      $20, X3, X3
	VPUNPCKLDQ  X3, X15, X4
	VPUNPCKHDQ  X3, X15, X5
	VINSERTF128 $1, X5, Y4, Y4
	VMULPD      Y4, Y0, Y0
	CMPQ        DX, $1
	JNE         exp_store
	VADDPD      expc<>+ONE(SB), Y0, Y0 // sigmoid: 1 / (1 + e)
	VMOVUPD     expc<>+ONE(SB), Y2
	VDIVPD      Y0, Y2, Y0

exp_store:
	CMPQ    AX, $15
	JNE     exp_partial
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, CX
	JLT     exp_group
	XORQ    AX, AX
	JMP     exp_done

exp_partial:
	// Write the lanes in the domain only; the caller recomputes the rest.
	VPUNPCKLDQ  X6, X6, X4
	VPUNPCKHDQ  X6, X6, X5
	VINSERTF128 $1, X5, Y4, Y4
	VMASKMOVPD  Y0, Y4, (DI)(BX*8)
	ADDQ        $4, BX
	XORQ        $15, AX
	JMP         exp_done

	// The same, eight lanes at a time. The constants are broadcast from
	// their first lane (.BCST), and 2^k is k + 1023 shifted into each
	// int64 lane's exponent field.
	PCALIGN $32
exp8_group:
	VMOVUPD (SI)(BX*8), Z0
	CMPQ    DX, $1
	JLT     exp8_arg
	JEQ     exp8_neg
	VMULPD  Z0, Z0, Z0 // Gaussian: −(x·x)
exp8_neg:
	VPXORQ.BCST expc<>+SIGN(SB), Z0, Z0

exp8_arg:
	VMULPD.BCST       expc<>+LOG2E(SB), Z0, Z1
	VCVTPD2DQ         Z1, Y2
	VCVTDQ2PD         Y2, Z1
	VPMOVSXDQ         Y2, Z3
	VPADDQ.BCST       expc<>+BIAS64(SB), Z3, Z3
	VPCMPQ            $6, Z15, Z3, K1                    // k + 1023 > 0
	VPCMPQ.BCST       $2, expc<>+EMAX64(SB), Z3, K2      // k + 1023 ≤ 0x7fe
	KANDW             K2, K1, K1
	KMOVW             K1, AX
	VFNMADD231PD.BCST expc<>+LN2U(SB), Z1, Z0
	VFNMADD231PD.BCST expc<>+LN2L(SB), Z1, Z0
	VMULPD.BCST       expc<>+SIXTEENTH(SB), Z0, Z0
	VBROADCASTSD      expc<>+C8(SB), Z2
	VFMADD213PD.BCST  expc<>+C7(SB), Z0, Z2
	VFMADD213PD.BCST  expc<>+C6(SB), Z0, Z2
	VFMADD213PD.BCST  expc<>+C5(SB), Z0, Z2
	VFMADD213PD.BCST  expc<>+C4(SB), Z0, Z2
	VFMADD213PD.BCST  expc<>+C3(SB), Z0, Z2
	VFMADD213PD.BCST  expc<>+HALF(SB), Z0, Z2
	VFMADD213PD.BCST  expc<>+ONE(SB), Z0, Z2
	VMULPD            Z2, Z0, Z0
	VADDPD.BCST       expc<>+TWO(SB), Z0, Z2
	VMULPD            Z2, Z0, Z0
	VADDPD.BCST       expc<>+TWO(SB), Z0, Z2
	VMULPD            Z2, Z0, Z0
	VADDPD.BCST       expc<>+TWO(SB), Z0, Z2
	VMULPD            Z2, Z0, Z0
	VADDPD.BCST       expc<>+TWO(SB), Z0, Z2
	VFMADD213PD.BCST  expc<>+ONE(SB), Z2, Z0
	VPSLLQ            $52, Z3, Z4
	VMULPD            Z4, Z0, Z0
	CMPQ              DX, $1
	JNE               exp8_store
	VADDPD.BCST       expc<>+ONE(SB), Z0, Z0 // sigmoid: 1 / (1 + e)
	VBROADCASTSD      expc<>+ONE(SB), Z2
	VDIVPD            Z0, Z2, Z0

exp8_store:
	CMPQ    AX, $0xff
	JNE     exp8_partial
	VMOVUPD Z0, (DI)(BX*8)
	ADDQ    $8, BX
	CMPQ    BX, CX
	JLT     exp8_group
	XORQ    AX, AX
	JMP     exp_done

exp8_partial:
	VMOVUPD Z0, K1, (DI)(BX*8)
	ADDQ    $8, BX
	XORQ    $0xff, AX

exp_done:
	MOVQ BX, done+56(FP)
	MOVQ AX, out+64(FP)
	VZEROUPPER
	RET

// The row kernels. Each runs one of three loops by its destination d: Set
// stores v, Init stores 0 + v (Y6 is zero, so −0 lands as +0) and Acc
// stores dst + v.

// func scaleAVX(dst, x []float64, a float64, d Dest)
//
// v = a·x. DI dst, SI x, CX len(x), R9 len(x) rounded down to four, BX the
// word; Y7 holds a in every lane.
TEXT ·scaleAVX(SB), NOSPLIT, $0-64
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	VBROADCASTSD a+48(FP), Y7
	MOVQ         d+56(FP), AX
	MOVQ         CX, R9
	ANDQ         $-4, R9
	XORQ         BX, BX
	VXORPD       Y6, Y6, Y6
	CMPQ         AX, $1
	JEQ          scale_init
	JHI          scale_acc

	CMPQ BX, R9
	JGE  scale_set1
	PCALIGN $32
scale_set4:
	VMULPD  (SI)(BX*8), Y7, Y0
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, R9
	JLT     scale_set4
	PCALIGN $32
scale_set1:
	CMPQ   BX, CX
	JGE    scale_done
	VMULSD (SI)(BX*8), X7, X0
	VMOVSD X0, (DI)(BX*8)
	INCQ   BX
	JMP    scale_set1

scale_init:
	CMPQ BX, R9
	JGE  scale_init1
	PCALIGN $32
scale_init4:
	VMULPD  (SI)(BX*8), Y7, Y0
	VADDPD  Y0, Y6, Y0
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, R9
	JLT     scale_init4
	PCALIGN $32
scale_init1:
	CMPQ   BX, CX
	JGE    scale_done
	VMULSD (SI)(BX*8), X7, X0
	VADDSD X0, X6, X0
	VMOVSD X0, (DI)(BX*8)
	INCQ   BX
	JMP    scale_init1

scale_acc:
	CMPQ BX, R9
	JGE  scale_acc1
	PCALIGN $32
scale_acc4:
	VMULPD  (SI)(BX*8), Y7, Y0
	VMOVUPD (DI)(BX*8), Y1
	VADDPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, R9
	JLT     scale_acc4
	PCALIGN $32
scale_acc1:
	CMPQ   BX, CX
	JGE    scale_done
	VMULSD (SI)(BX*8), X7, X0
	VMOVSD (DI)(BX*8), X1
	VADDSD X0, X1, X1
	VMOVSD X1, (DI)(BX*8)
	INCQ   BX
	JMP    scale_acc1

scale_done:
	VZEROUPPER
	RET

// func stepRowAVX(dst, y, x []float64, a, e float64, d Dest)
//
// v = y + a·(e·x). DI dst, R10 y, SI x, CX len(x), R9 len(x) rounded down
// to four, BX the word; Y7 holds a and Y8 e in every lane.
TEXT ·stepRowAVX(SB), NOSPLIT, $0-96
	MOVQ         dst_base+0(FP), DI
	MOVQ         y_base+24(FP), R10
	MOVQ         x_base+48(FP), SI
	MOVQ         x_len+56(FP), CX
	VBROADCASTSD a+72(FP), Y7
	VBROADCASTSD e+80(FP), Y8
	MOVQ         d+88(FP), AX
	MOVQ         CX, R9
	ANDQ         $-4, R9
	XORQ         BX, BX
	VXORPD       Y6, Y6, Y6
	CMPQ         AX, $1
	JEQ          steprow_init
	JHI          steprow_acc

	CMPQ BX, R9
	JGE  steprow_set1
	PCALIGN $32
steprow_set4:
	VMULPD  (SI)(BX*8), Y8, Y0
	VMULPD  Y0, Y7, Y0
	VMOVUPD (R10)(BX*8), Y1
	VADDPD  Y0, Y1, Y0
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, R9
	JLT     steprow_set4
	PCALIGN $32
steprow_set1:
	CMPQ   BX, CX
	JGE    steprow_done
	VMULSD (SI)(BX*8), X8, X0
	VMULSD X0, X7, X0
	VMOVSD (R10)(BX*8), X1
	VADDSD X0, X1, X0
	VMOVSD X0, (DI)(BX*8)
	INCQ   BX
	JMP    steprow_set1

steprow_init:
	CMPQ BX, R9
	JGE  steprow_init1
	PCALIGN $32
steprow_init4:
	VMULPD  (SI)(BX*8), Y8, Y0
	VMULPD  Y0, Y7, Y0
	VMOVUPD (R10)(BX*8), Y1
	VADDPD  Y0, Y1, Y0
	VADDPD  Y0, Y6, Y0
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, R9
	JLT     steprow_init4
	PCALIGN $32
steprow_init1:
	CMPQ   BX, CX
	JGE    steprow_done
	VMULSD (SI)(BX*8), X8, X0
	VMULSD X0, X7, X0
	VMOVSD (R10)(BX*8), X1
	VADDSD X0, X1, X0
	VADDSD X0, X6, X0
	VMOVSD X0, (DI)(BX*8)
	INCQ   BX
	JMP    steprow_init1

steprow_acc:
	CMPQ BX, R9
	JGE  steprow_acc1
	PCALIGN $32
steprow_acc4:
	VMULPD  (SI)(BX*8), Y8, Y0
	VMULPD  Y0, Y7, Y0
	VMOVUPD (R10)(BX*8), Y1
	VADDPD  Y0, Y1, Y0
	VMOVUPD (DI)(BX*8), Y1
	VADDPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, R9
	JLT     steprow_acc4
	PCALIGN $32
steprow_acc1:
	CMPQ   BX, CX
	JGE    steprow_done
	VMULSD (SI)(BX*8), X8, X0
	VMULSD X0, X7, X0
	VMOVSD (R10)(BX*8), X1
	VADDSD X0, X1, X0
	VMOVSD (DI)(BX*8), X1
	VADDSD X0, X1, X1
	VMOVSD X1, (DI)(BX*8)
	INCQ   BX
	JMP    steprow_acc1

steprow_done:
	VZEROUPPER
	RET

// TREE8 sums four words of the eight streams from off bytes past SI, R12
// (a) and DI, R13 (b) in the tree's order, stream j paired with j+4, then
// j+2, then j+1, and stores the four sums off bytes past DX. S0–S3 hold the
// sums and P0–P3 the products paired with them.
#define TREE8(off, S0, S1, S2, S3, P0, P1, P2, P3) \
	VMOVUPD off(SI), S0; \
	VMULPD  off(DI), S0, S0; \
	VMOVUPD off(R12), P0; \
	VMULPD  off(R13), P0, P0; \
	VADDPD  P0, S0, S0; \
	VMOVUPD off(SI)(R8*2), S2; \
	VMULPD  off(DI)(R8*2), S2, S2; \
	VMOVUPD off(R12)(R8*2), P2; \
	VMULPD  off(R13)(R8*2), P2, P2; \
	VADDPD  P2, S2, S2; \
	VADDPD  S2, S0, S0; \
	VMOVUPD off(SI)(R8*1), S1; \
	VMULPD  off(DI)(R8*1), S1, S1; \
	VMOVUPD off(R12)(R8*1), P1; \
	VMULPD  off(R13)(R8*1), P1, P1; \
	VADDPD  P1, S1, S1; \
	VMOVUPD off(SI)(R10*1), S3; \
	VMULPD  off(DI)(R10*1), S3, S3; \
	VMOVUPD off(R12)(R10*1), P3; \
	VMULPD  off(R13)(R10*1), P3, P3; \
	VADDPD  P3, S3, S3; \
	VADDPD  S3, S1, S1; \
	VADDPD  S1, S0, S0; \
	VMOVUPD S0, off(DX)

// func treeAVX(t, a, b []float64) float64
//
// T of the k = len(a) products a[i]·b[i], k a power of two of at least
// eight. Up to 16 products fit in two or four vectors, folded in registers.
// From 32 on, a first pass runs the tree's top three levels over eight
// streams m = k/8 floats apart and writes m partial sums: eight words a
// time, a whole cache line of each stream, while eight are left, then four.
// The sums go to the frame while m ≤ 64, else to t. They halve in place,
// t[i] += t[i+h] for h = m/2 down to 4, and the last four fold as
// (t0+t2) + (t1+t3). SI walks a and R12 a's upper half, DI and R13 b's, DX
// the sums; R8 is the stream stride in bytes (k) and R10 three strides; CX
// counts the words left.
TEXT ·treeAVX(SB), NOSPLIT, $512-80
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ b_base+48(FP), DI
	CMPQ CX, $16
	JGT  tree_streams
	VMOVUPD (SI), Y0
	VMULPD  (DI), Y0, Y0
	VMOVUPD 32(SI), Y1
	VMULPD  32(DI), Y1, Y1
	CMPQ    CX, $8
	JEQ     tree_8
	VMOVUPD 64(SI), Y2
	VMULPD  64(DI), Y2, Y2
	VMOVUPD 96(SI), Y3
	VMULPD  96(DI), Y3, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1

tree_8:
	VADDPD Y1, Y0, Y0
	JMP    tree_last

tree_streams:
	MOVQ CX, R8
	SHRQ $3, CX
	MOVQ CX, R11
	LEAQ (R8)(R8*2), R10
	LEAQ (SI)(R8*4), R12
	LEAQ (DI)(R8*4), R13
	LEAQ 0(SP), DX
	CMPQ CX, $64
	JLE  tree_pass
	MOVQ t_base+0(FP), DX

tree_pass:
	CMPQ CX, $8
	JLT  tree_pass4

	PCALIGN $32
tree_pass8:
	TREE8(0, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	TREE8(32, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, R12
	ADDQ $64, R13
	ADDQ $64, DX
	SUBQ $8, CX
	JNZ  tree_pass8
	SUBQ R8, DX
	JMP  tree_halved

tree_pass4:
	TREE8(0, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)

tree_halved:
	// Halve the sums: AX is h, BX the word.
	MOVQ R11, AX

tree_level:
	SHRQ $1, AX
	CMPQ AX, $4
	JLT  tree_load
	LEAQ (DX)(AX*8), R9
	XORQ BX, BX

	PCALIGN $32
tree_halve:
	VMOVUPD (DX)(BX*8), Y0
	VADDPD  (R9)(BX*8), Y0, Y0
	VMOVUPD Y0, (DX)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, AX
	JLT     tree_halve
	JMP     tree_level

tree_load:
	VMOVUPD (DX), Y0

tree_last:
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0
	VMOVSD       X0, ret+72(FP)
	VZEROUPPER
	RET
