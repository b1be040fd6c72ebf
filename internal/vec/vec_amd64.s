#include "textflag.h"

// The AVX kernels. Each packed loop runs four lanes per instruction and a
// scalar loop runs the lanes left over, with the same operations in the
// same operand order: Go's VSUBPD src2, src1, dst computes src1 − src2.
// Every loop head is aligned to 32 bytes, so where the linker places a
// kernel cannot change how its loops run. Each kernel clears the upper YMM
// halves before it returns, so the SSE code Go emits pays no transition.

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

// func runAVX(vals []float64, prog []Instr, n int)
//
// DI vals, SI the instruction, R8 instructions left, CX n, R9 n rounded
// down to four lanes, BX the lane; R10–R14 the rows d, a, b, c, e.
TEXT ·runAVX(SB), NOSPLIT, $0-56
	MOVQ vals_base+0(FP), DI
	MOVQ prog_base+24(FP), SI
	MOVQ prog_len+32(FP), R8
	MOVQ n+48(FP), CX
	MOVQ CX, R9
	ANDQ $-4, R9
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
	JMP     run_next

muladd: // d = a·b + c
	CMPQ BX, R9
	JGE  muladd1
	PCALIGN $32
muladd4:
	VMOVUPD (R11)(BX*8), Y0
	VMULPD  (R12)(BX*8), Y0, Y0
	VADDPD  (R13)(BX*8), Y0, Y0
	VMOVUPD Y0, (R10)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, R9
	JLT     muladd4
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

mulmuladd: // d = a·b + c·e
	CMPQ BX, R9
	JGE  mulmuladd1
	PCALIGN $32
mulmuladd4:
	VMOVUPD (R11)(BX*8), Y0
	VMULPD  (R12)(BX*8), Y0, Y0
	VMOVUPD (R13)(BX*8), Y1
	VMULPD  (R14)(BX*8), Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (R10)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, R9
	JLT     mulmuladd4
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

addmul: // d = a + b·c
	CMPQ BX, R9
	JGE  addmul1
	PCALIGN $32
addmul4:
	VMOVUPD (R12)(BX*8), Y1
	VMULPD  (R13)(BX*8), Y1, Y1
	VMOVUPD (R11)(BX*8), Y0
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (R10)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, R9
	JLT     addmul4
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

mul: // d = a·b
	CMPQ BX, R9
	JGE  mul1
	PCALIGN $32
mul4:
	VMOVUPD (R11)(BX*8), Y0
	VMULPD  (R12)(BX*8), Y0, Y0
	VMOVUPD Y0, (R10)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, R9
	JLT     mul4
	PCALIGN $32
mul1:
	CMPQ   BX, CX
	JGE    run_next
	VMOVSD (R11)(BX*8), X0
	VMULSD (R12)(BX*8), X0, X0
	VMOVSD X0, (R10)(BX*8)
	INCQ   BX
	JMP    mul1

add: // d = a + b
	CMPQ BX, R9
	JGE  add1
	PCALIGN $32
add4:
	VMOVUPD (R11)(BX*8), Y0
	VADDPD  (R12)(BX*8), Y0, Y0
	VMOVUPD Y0, (R10)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, R9
	JLT     add4
	PCALIGN $32
add1:
	CMPQ   BX, CX
	JGE    run_next
	VMOVSD (R11)(BX*8), X0
	VADDSD (R12)(BX*8), X0, X0
	VMOVSD X0, (R10)(BX*8)
	INCQ   BX
	JMP    add1

sub: // d = a − b
	CMPQ BX, R9
	JGE  sub1
	PCALIGN $32
sub4:
	VMOVUPD (R11)(BX*8), Y0
	VSUBPD  (R12)(BX*8), Y0, Y0
	VMOVUPD Y0, (R10)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, R9
	JLT     sub4
	PCALIGN $32
sub1:
	CMPQ   BX, CX
	JGE    run_next
	VMOVSD (R11)(BX*8), X0
	VSUBSD (R12)(BX*8), X0, X0
	VMOVSD X0, (R10)(BX*8)
	INCQ   BX
	JMP    sub1

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

// func stepAVX(vals []float64, tail []Product, n int, lr float64)
//
// m ← m − lr·(a·b); Y7 holds lr in every lane.
TEXT ·stepAVX(SB), NOSPLIT, $0-64
	MOVQ vals_base+0(FP), DI
	MOVQ tail_base+24(FP), SI
	MOVQ tail_len+32(FP), R8
	MOVQ n+48(FP), CX
	VBROADCASTSD lr+56(FP), Y7
	XORQ DX, DX
	MOVQ CX, R9
	ANDQ $-4, R9
	TESTQ R8, R8
	JZ   step_done

	PCALIGN $32
step_row:
	TAIL
	CMPQ BX, R9
	JGE  step1
	PCALIGN $32
step4:
	VMOVUPD (R11)(BX*8), Y0
	VMULPD  (R12)(BX*8), Y0, Y0
	VMULPD  Y0, Y7, Y0
	VMOVUPD (R10)(BX*8), Y1
	VSUBPD  Y0, Y1, Y1
	VMOVUPD Y1, (R10)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, R9
	JLT     step4
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
// s ← s + a·b, s at M + shift.
TEXT ·sumAVX(SB), NOSPLIT, $0-64
	MOVQ vals_base+0(FP), DI
	MOVQ tail_base+24(FP), SI
	MOVQ tail_len+32(FP), R8
	MOVQ shift+48(FP), DX
	MOVQ n+56(FP), CX
	MOVQ CX, R9
	ANDQ $-4, R9
	TESTQ R8, R8
	JZ   sum_done

	PCALIGN $32
sum_row:
	TAIL
	CMPQ BX, R9
	JGE  sum1
	PCALIGN $32
sum4:
	VMOVUPD (R11)(BX*8), Y0
	VMULPD  (R12)(BX*8), Y0, Y0
	VMOVUPD (R10)(BX*8), Y1
	VADDPD  Y0, Y1, Y1
	VMOVUPD Y1, (R10)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, R9
	JLT     sum4
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
// d ← a·b, d at M + shift.
TEXT ·prodAVX(SB), NOSPLIT, $0-64
	MOVQ vals_base+0(FP), DI
	MOVQ tail_base+24(FP), SI
	MOVQ tail_len+32(FP), R8
	MOVQ shift+48(FP), DX
	MOVQ n+56(FP), CX
	MOVQ CX, R9
	ANDQ $-4, R9
	TESTQ R8, R8
	JZ   prod_done

	PCALIGN $32
prod_row:
	TAIL
	CMPQ BX, R9
	JGE  prod1
	PCALIGN $32
prod4:
	VMOVUPD (R11)(BX*8), Y0
	VMULPD  (R12)(BX*8), Y0, Y0
	VMOVUPD Y0, (R10)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, R9
	JLT     prod4
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

// func broadcastAVX(dst, src []float64, w int)
//
// DI the row, SI the element, R8 elements left, CX w, R9 w rounded down to
// four lanes, BX the lane.
TEXT ·broadcastAVX(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), R8
	MOVQ w+48(FP), CX
	MOVQ CX, R9
	ANDQ $-4, R9
	TESTQ R8, R8
	JZ   bc_done

	PCALIGN $32
bc_row:
	VBROADCASTSD (SI), Y0
	XORQ BX, BX
	CMPQ BX, R9
	JGE  bc1
	PCALIGN $32
bc4:
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, R9
	JLT     bc4
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
