package verilog

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/compiler"
)

// Generate emits the complete Verilog for the planned accelerator: the
// template modules (PE datapath, row bus, tree bus, memory interface)
// specialized by the plan's dimensions, plus per-PE control — FSMs derived
// from the static schedule for FPGAs, a microcode ROM for P-ASICs.
func Generate(img *Image) (string, error) {
	prog := img.Prog
	plan := prog.Plan
	var b strings.Builder
	b.Grow(sizeHint(img))

	fmt.Fprintf(&b, "// CoSMIC-generated accelerator\n")
	fmt.Fprintf(&b, "// target: %s (%s), plan: T%d x R%d, %d columns, %d PEs/thread\n",
		plan.Chip.Name, plan.Chip.Kind, plan.Threads, plan.TotalRows(), plan.Columns, plan.PEsPerThread())
	fmt.Fprintf(&b, "// mapping: %s, interconnect: %s\n\n", prog.Style, interconnectName(prog.Interconnect))

	emitDefines(&b, img)
	emitTop(&b, img)
	emitMemInterface(&b, img)
	emitShifter(&b)
	emitRowBus(&b)
	emitTreeBus(&b, plan)
	emitPE(&b, img)
	if plan.Chip.Kind == arch.FPGA {
		if err := emitFSMControl(&b, img); err != nil {
			return "", err
		}
	} else {
		if err := emitMicrocodeROM(&b, img); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// sizeHint estimates the generated text's length so the builder grows once:
// the fixed templates plus a line per memory-schedule entry, thread, PE and
// control word.
func sizeHint(img *Image) int {
	instructions, _, _ := img.Stats()
	perInstr := 80 // one FSM state line
	if img.Prog.Plan.Chip.Kind != arch.FPGA {
		perInstr = 112 // two to six microcode lines, 45 bytes each
	}
	return 8<<10 + 32*len(img.Prog.MemSchedule) + 72*img.Prog.Plan.Threads +
		48*len(img.PEs) + perInstr*instructions
}

func interconnectName(ic compiler.Interconnect) string {
	if ic == compiler.FlatBus {
		return "flat-bus"
	}
	return "tree-bus"
}

func emitDefines(b *strings.Builder, img *Image) {
	plan := img.Prog.Plan
	fmt.Fprintf(b, "`define COLS %d\n", plan.Columns)
	fmt.Fprintf(b, "`define ROWS %d\n", plan.TotalRows())
	fmt.Fprintf(b, "`define THREADS %d\n", plan.Threads)
	fmt.Fprintf(b, "`define ROWS_PER_THREAD %d\n", plan.RowsPerThread)
	fmt.Fprintf(b, "`define WORD_W %d\n", arch.WordBytes*8)
	_, _, maxProg := img.Stats()
	fmt.Fprintf(b, "`define MAX_PROG %d\n\n", maxProg)
}

func emitTop(b *strings.Builder, img *Image) {
	plan := img.Prog.Plan
	b.WriteString("module cosmic_top (\n")
	b.WriteString("  input  wire                     clk,\n")
	b.WriteString("  input  wire                     rst_n,\n")
	b.WriteString("  input  wire [`COLS*`WORD_W-1:0] mem_rdata,\n")
	b.WriteString("  input  wire                     mem_rvalid,\n")
	b.WriteString("  output wire [`COLS*`WORD_W-1:0] mem_wdata,\n")
	b.WriteString("  output wire                     mem_wvalid,\n")
	b.WriteString("  output wire [31:0]              mem_addr,\n")
	b.WriteString("  output wire                     done\n")
	b.WriteString(");\n")
	fmt.Fprintf(b, "  // %d worker threads, each owning %d rows of %d PEs.\n",
		plan.Threads, plan.RowsPerThread, plan.Columns)
	b.WriteString("  wire [`ROWS*`COLS-1:0] pe_done;\n")
	b.WriteString("  wire [`WORD_W-1:0]     row_bus   [`ROWS-1:0];\n")
	b.WriteString("  wire [`WORD_W-1:0]     tree_out;\n\n")
	b.WriteString("  cosmic_mem_iface u_mem (\n")
	b.WriteString("    .clk(clk), .rst_n(rst_n),\n")
	b.WriteString("    .rdata(mem_rdata), .rvalid(mem_rvalid),\n")
	b.WriteString("    .wdata(mem_wdata), .wvalid(mem_wvalid), .addr(mem_addr)\n")
	b.WriteString("  );\n\n")
	b.WriteString("  genvar r, c;\n")
	b.WriteString("  generate\n")
	b.WriteString("    for (r = 0; r < `ROWS; r = r + 1) begin : g_row\n")
	b.WriteString("      cosmic_row_bus u_bus (.clk(clk), .rst_n(rst_n), .dout(row_bus[r]));\n")
	b.WriteString("      for (c = 0; c < `COLS; c = c + 1) begin : g_pe\n")
	b.WriteString("        cosmic_pe #(.ROW(r), .COL(c)) u_pe (\n")
	b.WriteString("          .clk(clk), .rst_n(rst_n),\n")
	b.WriteString("          .bus_in(row_bus[r]), .tree_in(tree_out),\n")
	b.WriteString("          .done(pe_done[r*`COLS+c])\n")
	b.WriteString("        );\n")
	b.WriteString("      end\n")
	b.WriteString("    end\n")
	b.WriteString("  endgenerate\n\n")
	b.WriteString("  cosmic_tree_bus u_tree (.clk(clk), .rst_n(rst_n), .dout(tree_out));\n")
	b.WriteString("  assign done = &pe_done;\n")
	b.WriteString("endmodule\n\n")
}

func emitMemInterface(b *strings.Builder, img *Image) {
	prog := img.Prog
	b.WriteString("// Programmable memory interface: replays the Memory Schedule for each\n")
	b.WriteString("// thread via the Thread Index Table (PE offset + data base address),\n")
	b.WriteString("// so one schedule serves all MIMD worker threads.\n")
	b.WriteString("module cosmic_mem_iface (\n")
	b.WriteString("  input  wire clk, input wire rst_n,\n")
	b.WriteString("  input  wire [`COLS*`WORD_W-1:0] rdata, input wire rvalid,\n")
	b.WriteString("  output reg  [`COLS*`WORD_W-1:0] wdata, output reg wvalid,\n")
	b.WriteString("  output reg  [31:0] addr\n")
	b.WriteString(");\n")
	fmt.Fprintf(b, "  localparam SCHED_LEN = %d;\n", len(prog.MemSchedule))
	b.WriteString("  // {base_pe[15:0], wr, bcast, size[13:0]} per entry\n")
	b.WriteString("  reg [31:0] sched [0:SCHED_LEN-1];\n")
	b.WriteString("  reg [31:0] thread_table [0:`THREADS-1]; // {pe_offset, mem_base}\n")
	b.WriteString("  integer i;\n")
	b.WriteString("  initial begin\n")
	var line []byte
	for i, e := range prog.MemSchedule {
		word := uint32(e.BasePE)<<16 | boolBit(e.Write)<<15 | boolBit(e.Broadcast)<<14 | uint32(e.Size)&0x3fff
		line = append(line[:0], "    sched["...)
		line = strconv.AppendInt(line, int64(i), 10)
		line = append(line, "] = 32'h"...)
		line = appendHex32(line, word)
		line = append(line, ";\n"...)
		b.Write(line)
	}
	for t := 0; t < prog.Plan.Threads; t++ {
		offset := t * prog.Rows * prog.Columns
		line = append(line[:0], "    thread_table["...)
		line = strconv.AppendInt(line, int64(t), 10)
		line = append(line, "] = 32'h"...)
		line = appendHex32(line, uint32(offset)<<16)
		line = append(line, "; // thread "...)
		line = strconv.AppendInt(line, int64(t), 10)
		line = append(line, ": PE offset "...)
		line = strconv.AppendInt(line, int64(offset), 10)
		line = append(line, '\n')
		b.Write(line)
	}
	b.WriteString("  end\n")
	b.WriteString("  reg [15:0] ptr; reg [7:0] cur_thread;\n")
	b.WriteString("  always @(posedge clk) begin\n")
	b.WriteString("    if (!rst_n) begin ptr <= 0; cur_thread <= 0; wvalid <= 0; end\n")
	b.WriteString("    else begin\n")
	b.WriteString("      // round-robin across threads at vector granularity\n")
	b.WriteString("      addr   <= thread_table[cur_thread][15:0] + {16'b0, ptr};\n")
	b.WriteString("      wvalid <= sched[ptr][15];\n")
	b.WriteString("      wdata  <= {`COLS{32'b0}};\n")
	b.WriteString("      if (rvalid) begin\n")
	b.WriteString("        if (ptr == SCHED_LEN-1) begin\n")
	b.WriteString("          ptr <= 0;\n")
	b.WriteString("          cur_thread <= (cur_thread == `THREADS-1) ? 8'd0 : cur_thread + 8'd1;\n")
	b.WriteString("        end else ptr <= ptr + 16'd1;\n")
	b.WriteString("      end\n")
	b.WriteString("    end\n")
	b.WriteString("  end\n")
	b.WriteString("endmodule\n\n")
}

func emitShifter(b *strings.Builder) {
	b.WriteString("// On-chip shifter: aligns raw memory words with PE columns so data is\n")
	b.WriteString("// consumed in its memory layout, with no software marshaling.\n")
	b.WriteString("module cosmic_shifter (\n")
	b.WriteString("  input  wire [`COLS*`WORD_W-1:0] din,\n")
	b.WriteString("  input  wire [$clog2(`COLS)-1:0] amount,\n")
	b.WriteString("  output wire [`COLS*`WORD_W-1:0] dout\n")
	b.WriteString(");\n")
	b.WriteString("  wire [2*`COLS*`WORD_W-1:0] doubled = {din, din};\n")
	b.WriteString("  assign dout = doubled >> (amount * `WORD_W);\n")
	b.WriteString("endmodule\n\n")
}

func emitRowBus(b *strings.Builder) {
	b.WriteString("// Shared bus within one PE row: one transmission per cycle, snooped by\n")
	b.WriteString("// every PE in the row.\n")
	b.WriteString("module cosmic_row_bus (\n")
	b.WriteString("  input wire clk, input wire rst_n,\n")
	b.WriteString("  output reg [`WORD_W-1:0] dout\n")
	b.WriteString(");\n")
	b.WriteString("  always @(posedge clk) if (!rst_n) dout <= 0;\n")
	b.WriteString("endmodule\n\n")
}

func emitTreeBus(b *strings.Builder, plan arch.Plan) {
	b.WriteString("// Tree bus across rows. Each internal switch carries an ALU so\n")
	b.WriteString("// reductions (sigma/pi) complete in-flight; latency grows with\n")
	b.WriteString("// log2(rows), keeping the template scalable.\n")
	b.WriteString("module cosmic_tree_bus (\n")
	b.WriteString("  input wire clk, input wire rst_n,\n")
	b.WriteString("  output wire [`WORD_W-1:0] dout\n")
	b.WriteString(");\n")
	levels := 0
	for n := 1; n < plan.TotalRows(); n *= 2 {
		levels++
	}
	fmt.Fprintf(b, "  localparam LEVELS = %d;\n", levels)
	b.WriteString("  reg [`WORD_W-1:0] stage [0:LEVELS];\n")
	b.WriteString("  integer l;\n")
	b.WriteString("  always @(posedge clk) begin\n")
	b.WriteString("    if (!rst_n) for (l = 0; l <= LEVELS; l = l + 1) stage[l] <= 0;\n")
	b.WriteString("    else for (l = 1; l <= LEVELS; l = l + 1) stage[l] <= stage[l-1] + stage[l-1]; // ALU per switch\n")
	b.WriteString("  end\n")
	b.WriteString("  assign dout = stage[LEVELS];\n")
	b.WriteString("endmodule\n\n")
}

func emitPE(b *strings.Builder, img *Image) {
	maxData, maxModel, maxInterim := 1, 1, 1
	for _, pe := range img.PEs {
		maxData = maxInt(maxData, pe.DataSlots)
		maxModel = maxInt(maxModel, pe.ModelSlots)
		maxInterim = maxInt(maxInterim, pe.InterimSlots)
	}
	b.WriteString("// Processing engine: five-stage pipeline (read, register, select,\n")
	b.WriteString("// execute, write-back) over partitioned data/model/interim buffers,\n")
	b.WriteString("// with a bypass from write-back to execute.\n")
	b.WriteString("module cosmic_pe #(parameter ROW = 0, parameter COL = 0) (\n")
	b.WriteString("  input  wire clk, input wire rst_n,\n")
	b.WriteString("  input  wire [`WORD_W-1:0] bus_in,\n")
	b.WriteString("  input  wire [`WORD_W-1:0] tree_in,\n")
	b.WriteString("  output reg  done\n")
	b.WriteString(");\n")
	fmt.Fprintf(b, "  reg [`WORD_W-1:0] data_buf    [0:%d];\n", maxData-1)
	fmt.Fprintf(b, "  reg [`WORD_W-1:0] model_buf   [0:%d];\n", maxModel-1)
	fmt.Fprintf(b, "  reg [`WORD_W-1:0] interim_buf [0:%d];\n", maxInterim-1)
	b.WriteString("  // stage 1-2: operand fetch and registering\n")
	b.WriteString("  reg [`WORD_W-1:0] opa_q, opb_q, opc_q;\n")
	b.WriteString("  // stage 3: operand select (buffer vs bus vs bypass)\n")
	b.WriteString("  reg [`WORD_W-1:0] alu_a, alu_b, alu_c;\n")
	b.WriteString("  // stage 4: ALU / nonlinear LUT\n")
	b.WriteString("  reg [`WORD_W-1:0] alu_y;\n")
	b.WriteString("  // stage 5: write-back, with bypass to stage 4\n")
	b.WriteString("  reg [`WORD_W-1:0] wb_q;\n")
	b.WriteString("  wire [7:0] opcode;\n")
	b.WriteString("  cosmic_pe_ctrl #(.ROW(ROW), .COL(COL)) u_ctrl (\n")
	b.WriteString("    .clk(clk), .rst_n(rst_n), .opcode(opcode), .done(done)\n")
	b.WriteString("  );\n")
	b.WriteString("  always @(posedge clk) begin\n")
	b.WriteString("    opa_q <= data_buf[0]; opb_q <= model_buf[0]; opc_q <= interim_buf[0];\n")
	b.WriteString("    alu_a <= opa_q; alu_b <= opb_q; alu_c <= opc_q;\n")
	b.WriteString("    case (opcode)\n")
	b.WriteString("      8'd1: alu_y <= alu_a + alu_b;          // ADD\n")
	b.WriteString("      8'd2: alu_y <= alu_a - alu_b;          // SUB\n")
	b.WriteString("      8'd3: alu_y <= alu_a * alu_b;          // MUL (DSP slice)\n")
	b.WriteString("      8'd12: alu_y <= alu_a ? alu_b : alu_c; // SEL\n")
	b.WriteString("      default: alu_y <= alu_a;               // nonlinear ops via the LUT unit\n")
	b.WriteString("    endcase\n")
	b.WriteString("    wb_q <= alu_y;\n")
	b.WriteString("    interim_buf[0] <= wb_q;\n")
	b.WriteString("  end\n")
	b.WriteString("endmodule\n\n")
	if img.Prog.Graph.HasNonlinear() {
		emitNonlinearLUT(b)
	}
}

func emitNonlinearLUT(b *strings.Builder) {
	b.WriteString("// Nonlinear unit: lookup table for sigmoid/gaussian/log/divide,\n")
	b.WriteString("// instantiated only in PEs whose schedule contains a nonlinear op.\n")
	b.WriteString("module cosmic_nl_lut (\n")
	b.WriteString("  input  wire [`WORD_W-1:0] x,\n")
	b.WriteString("  input  wire [3:0]         fn,\n")
	b.WriteString("  output wire [`WORD_W-1:0] y\n")
	b.WriteString(");\n")
	b.WriteString("  reg [`WORD_W-1:0] lut [0:1023];\n")
	b.WriteString("  assign y = lut[{fn, x[`WORD_W-1-:6]}];\n")
	b.WriteString("endmodule\n\n")
}

// emitFSMControl lowers each PE's static schedule into a state machine: the
// FPGA backend's replacement for instruction fetch/decode.
func emitFSMControl(b *strings.Builder, img *Image) error {
	b.WriteString("// Per-PE control FSMs generated from the static schedule. State k\n")
	b.WriteString("// issues the k-th scheduled operation; there is no fetch or decode.\n")
	b.WriteString("module cosmic_pe_ctrl #(parameter ROW = 0, parameter COL = 0) (\n")
	b.WriteString("  input  wire clk, input wire rst_n,\n")
	b.WriteString("  output reg [7:0] opcode,\n")
	b.WriteString("  output reg done\n")
	b.WriteString(");\n")
	b.WriteString("  reg [15:0] state;\n")
	b.WriteString("  always @(posedge clk) begin\n")
	b.WriteString("    if (!rst_n) begin state <= 0; done <= 0; opcode <= 0; end\n")
	b.WriteString("    else begin\n")
	b.WriteString("      case ({ROW[7:0], COL[7:0]})\n")
	var line []byte
	for _, pe := range img.PEs {
		line = append(line[:0], "        {8'd"...)
		line = strconv.AppendInt(line, int64(pe.PE/img.Prog.Columns), 10)
		line = append(line, ", 8'd"...)
		line = strconv.AppendInt(line, int64(pe.PE%img.Prog.Columns), 10)
		line = append(line, "}: begin // PE "...)
		line = strconv.AppendInt(line, int64(pe.PE), 10)
		line = append(line, ": "...)
		line = strconv.AppendInt(line, int64(len(pe.Instructions)), 10)
		line = append(line, " ops\n"...)
		b.Write(line)
		if len(pe.Instructions) == 0 {
			b.WriteString("          done <= 1;\n")
		} else {
			b.WriteString("          case (state)\n")
			for k, ins := range pe.Instructions {
				line = append(line[:0], "            16'd"...)
				line = strconv.AppendInt(line, int64(k), 10)
				line = append(line, ": begin opcode <= 8'd"...)
				line = strconv.AppendInt(line, int64(ins.Opc), 10)
				line = append(line, "; state <= 16'd"...)
				line = strconv.AppendInt(line, int64(k+1), 10)
				line = append(line, "; end // "...)
				line = append(line, ins.Opc.String()...)
				line = append(line, " dst="...)
				line = strconv.AppendInt(line, int64(ins.Dst), 10)
				line = append(line, '\n')
				b.Write(line)
			}
			b.WriteString("            default: done <= 1;\n")
			b.WriteString("          endcase\n")
		}
		b.WriteString("        end\n")
	}
	b.WriteString("        default: done <= 1;\n")
	b.WriteString("      endcase\n")
	b.WriteString("    end\n")
	b.WriteString("  end\n")
	b.WriteString("endmodule\n")
	return nil
}

// emitMicrocodeROM emits the P-ASIC backend: a microcode ROM per PE decoded
// by a fixed control unit, so the chip is reprogrammable post-silicon.
func emitMicrocodeROM(b *strings.Builder, img *Image) error {
	b.WriteString("// P-ASIC microcode ROMs: the fixed control unit sequences these\n")
	b.WriteString("// words; reprogramming the chip means rewriting the ROM contents.\n")
	b.WriteString("module cosmic_pe_ctrl #(parameter ROW = 0, parameter COL = 0) (\n")
	b.WriteString("  input  wire clk, input wire rst_n,\n")
	b.WriteString("  output reg [7:0] opcode,\n")
	b.WriteString("  output reg done\n")
	b.WriteString(");\n")
	// Pack every instruction once; the header declares the total before
	// the lines that print the words.
	instructions, _, _ := img.Stats()
	var words []uint32
	ends := make([]int, 0, instructions)
	for _, pe := range img.PEs {
		for _, ins := range pe.Instructions {
			words = ins.AppendMicrocode(words)
			ends = append(ends, len(words))
		}
	}
	fmt.Fprintf(b, "  localparam UCODE_WORDS = %d;\n", len(words))
	b.WriteString("  reg [31:0] ucode [0:UCODE_WORDS-1];\n")
	b.WriteString("  initial begin\n")
	var line []byte
	w, k := 0, 0
	for _, pe := range img.PEs {
		for _, ins := range pe.Instructions {
			for ; w < ends[k]; w++ {
				line = append(line[:0], "    ucode["...)
				line = strconv.AppendInt(line, int64(w), 10)
				line = append(line, "] = 32'h"...)
				line = appendHex32(line, words[w])
				line = append(line, "; // PE "...)
				line = strconv.AppendInt(line, int64(pe.PE), 10)
				line = append(line, ' ')
				line = append(line, ins.Opc.String()...)
				line = append(line, '\n')
				b.Write(line)
			}
			k++
		}
	}
	b.WriteString("  end\n")
	b.WriteString("  reg [31:0] pc;\n")
	b.WriteString("  always @(posedge clk) begin\n")
	b.WriteString("    if (!rst_n) begin pc <= 0; done <= 0; opcode <= 0; end\n")
	b.WriteString("    else if (pc < UCODE_WORDS) begin opcode <= ucode[pc][31:24]; pc <= pc + 2; end\n")
	b.WriteString("    else done <= 1;\n")
	b.WriteString("  end\n")
	b.WriteString("endmodule\n")
	return nil
}

// appendHex32 appends w as eight lower-case hex digits, like %08x.
func appendHex32(dst []byte, w uint32) []byte {
	const digits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, digits[w>>shift&0xf])
	}
	return dst
}

func boolBit(v bool) uint32 {
	if v {
		return 1
	}
	return 0
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
