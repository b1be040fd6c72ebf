package dfg

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/vec"
)

// Lanes is the lane-major (structure-of-arrays) twin of Arena: width
// independent evaluations of one tape laid side by side, row r of lane l at
// vals[r*width+l]. Eval walks the lane program once for all lanes, so each
// instruction is decoded once and then runs as a loop over contiguous
// floats — the shape of the paper's MIMD threads, which all replay the same
// static schedule on their own data. A lane computes exactly what an Arena
// bound to the same values computes, bit for bit (lanes_test.go pins every
// op against Arena.Eval and Graph.Eval).
//
// A trainer's state lives in the arena as two contiguous blocks of rows,
// laid out by a LaneLayout: the model block, the elements of each ModelSpan
// in turn, and the gradient block, one row per model block row. A model leaf
// has no row of its own — the lane program reads its element's model block
// row — so an update that steps the block in place has updated every leaf,
// and an element no node reads is carried all the same.
//
// The gradient outputs run last, as the program's update tail: a gradient
// row whose value is a product nothing else reads (and that reads no model
// row) is computed inside the update Eval applies, so under UpdateStep it is
// never stored at all. Every other gradient row has a value row of its own:
// one that is not a model row joins the tail as its product with a row of
// ones, and one that is (the gradient is a model leaf) falls back to a
// per-row update around the tail. The remaining rows —
// leaves, constants and outputs — are stable; temporaries share rows by
// liveness, so the arena holds about as many temporary rows as the program
// ever has live values at once.
//
// A Lanes is not safe for concurrent use.
type Lanes struct {
	width int
	vals  []float64
	// rows maps an addressable slot (node ID) to its row, −1 for a
	// temporary, whose row is reused.
	rows []int32
	// words is the model block's row count, and of the gradient block that
	// follows it; spans lay the model block out.
	words int
	spans []ModelSpan
	// model is the tape's model bindings (validated in that order) and
	// modelSpan the index of each one's span.
	model     []symBinding
	modelSpan []int
	// data is the tape's data bindings, validated in that order; runs
	// writes them, and cols is BindData's scratch: each symbol's vectors,
	// lane by lane.
	data []symBinding
	runs []bindRun
	cols [][]float64
	// prog is the lane program: its arithmetic runs as packed instructions
	// in kern, each maximal run of them behind one opKernels instruction.
	// tail computes the fused gradient rows, unit the gradient rows whose
	// value row is not a model row (its product with a row of ones), and
	// fallback names the value row of every other gradient row.
	prog     []laneInstr
	kern     []vec.Instr
	tail     []vec.Product
	unit     []vec.Product
	fallback []rowCopy
}

// Update is the local training step Lanes.Eval applies to the gradient
// block's rows (Equation 3a within a thread).
type Update uint8

const (
	// UpdateNone leaves each gradient in its gradient block row.
	UpdateNone Update = iota
	// UpdateStep steps each model block row by its gradient, θ ← θ − lr·g:
	// the local SGD of the averaging aggregator.
	UpdateStep
	// UpdateSum adds each gradient to its gradient block row, which holds
	// the lane's running sum: the summing aggregator.
	UpdateSum
)

// LaneLayout places a lane arena's model and gradient blocks.
type LaneLayout struct {
	// Model lays the model block out, span by span. Nil lays out the tape's
	// model symbols in ModelSymbols order, each as long as the tape reads.
	Model []ModelSpan
	// Grads is, row by row, the slot (node ID) whose value is the gradient
	// of the model block row; it is as long as the model block, or nil for
	// no gradient block.
	Grads []int
}

// ModelSpan is one model symbol's run of rows in a lane arena's model
// block: Words rows, one per element.
type ModelSpan struct {
	Name  string
	Words int
}

// rowCopy names gradient block row to's value row, from.
type rowCopy struct{ to, from int32 }

// bindRun is one run of a data symbol's loads: elements elem … elem+count−1
// of data symbol sym land in rows row … row+count−1.
type bindRun struct{ sym, row, elem, count int32 }

// laneInstr is one lane-program instruction: a tape instruction with its
// operands resolved to rows, a fused product-sum whose fourth operand is e,
// or an opKernels that runs the packed instructions kern[a:b].
type laneInstr struct {
	op           Op
	dst, a, b, c int32
	e            int32
}

// laneProduct is one update-tail instruction: gradient block row r's value
// is the product of rows a and b.
type laneProduct struct{ a, b, r int32 }

// Fused product-sums: an OpAdd that is the only reader of one or both of its
// OpMul operands computes the products itself, and the products' own
// instructions are dropped. The explicit float64 conversions round each
// product before the add, as its own instruction would, and forbid the
// compiler from contracting the pair into an FMA on any GOARCH.
const (
	opMulAdd    Op = OpSign + 1 + iota // d = float64(a*b) + c
	opAddMul                           // d = a + float64(b*c)
	opMulMulAdd                        // d = float64(a*b) + float64(c*e)
	opKernels                          // a run of packed instructions
)

// packedOps maps the lane program's arithmetic to the packed instructions
// that run it, with the number of operands each reads.
var packedOps = map[Op]struct {
	op   vec.Op
	args int
}{
	OpAdd: {vec.Add, 2}, OpSub: {vec.Sub, 2}, OpMul: {vec.Mul, 2},
	opMulAdd: {vec.MulAdd, 3}, opAddMul: {vec.AddMul, 3}, opMulMulAdd: {vec.MulMulAdd, 4},
	OpSelect: {vec.Select, 3}, OpLT: {vec.Less, 2},
}

// ModelSymbols returns the names of the model symbols the tape reads, in
// binding order: the default model block layout.
func (t *Tape) ModelSymbols() []string { return bindingNames(t.model) }

// DataSymbols returns the names of the data symbols the tape reads, in the
// order Lanes.BindData takes their vectors.
func (t *Tape) DataSymbols() []string { return bindingNames(t.data) }

func bindingNames(syms []symBinding) []string {
	names := make([]string, len(syms))
	for i := range syms {
		names[i] = syms[i].name
	}
	return names
}

// NewLanes allocates a lane arena of the given width with the layout's
// blocks. Every model symbol the tape reads needs a span that covers its
// leaves. Constant rows are filled once; no evaluation overwrites them.
func (t *Tape) NewLanes(width int, layout LaneLayout) *Lanes {
	if width < 1 {
		panic("dfg: lane arena needs at least one lane")
	}
	block := layout.Model
	if block == nil {
		for i := range t.model {
			block = append(block, ModelSpan{Name: t.model[i].name, Words: t.model[i].minLen})
		}
	}
	la := &Lanes{width: width, rows: make([]int32, t.nSlots), spans: block, model: t.model}
	base := make(map[string]int, len(block))
	for i, sp := range block {
		base[sp.Name] = i
		la.words += sp.Words
	}
	if layout.Grads != nil && len(layout.Grads) != la.words {
		panic("dfg: lane gradient block is not as long as the model block")
	}
	for s := range la.rows {
		la.rows[s] = -1
	}
	for i := range t.model {
		sb := &t.model[i]
		span, ok := base[sb.name]
		if !ok || sb.minLen > block[span].Words {
			panic("dfg: lane model block does not cover model symbol " + sb.name)
		}
		first := 0
		for _, sp := range block[:span] {
			first += sp.Words
		}
		la.modelSpan = append(la.modelSpan, span)
		for _, ld := range sb.loads {
			la.rows[ld.slot] = int32(first) + ld.elem
		}
	}
	nRows := la.lower(t, layout.Grads)
	la.vals = make([]float64, nRows*width)
	for s, c := range t.template {
		if math.Float64bits(c) != 0 { // −0 too
			vec.Broadcast(la.Row(s), t.template[s:s+1], width)
		}
	}
	if len(la.unit) > 0 { // the row of ones the unit rows multiply by
		vec.Broadcast(la.vals[la.unit[0].B:], []float64{1}, width)
	}
	la.data = make([]symBinding, len(t.data))
	la.cols = make([][]float64, len(t.data)*width)
	for i, sb := range t.data {
		la.data[i] = symBinding{name: sb.name, minLen: sb.minLen}
		loads := make([]leafLoad, len(sb.loads))
		for j, ld := range sb.loads {
			loads[j] = leafLoad{slot: la.rows[ld.slot], elem: ld.elem}
		}
		// A run is loads into consecutive rows (held in slot) of consecutive
		// elements.
		slices.SortFunc(loads, func(a, b leafLoad) int { return cmp.Compare(a.slot, b.slot) })
		for _, ld := range loads {
			if k := len(la.runs) - 1; k >= 0 && la.runs[k].sym == int32(i) &&
				la.runs[k].row+la.runs[k].count == ld.slot && la.runs[k].elem+la.runs[k].count == ld.elem {
				la.runs[k].count++
				continue
			}
			la.runs = append(la.runs, bindRun{sym: int32(i), row: ld.slot, elem: ld.elem, count: 1})
		}
	}
	return la
}

// lower builds the lane program, its update tail and fallback rows on the
// model rows la.rows already holds, gives every other slot its row, packs
// the program's arithmetic and the tail, and returns the arena's row count.
//
// The program fuses every OpMul whose one reader is an OpAdd operand — not
// an output, not read twice (add(m, m)) — into that add. A gradient row
// joins the tail when its slot is an unfused OpMul that only this gradient
// row names, that no instruction reads and that reads no model row: the
// tail then runs after every read of the model block, and under UpdateStep
// may rewrite it. Rows are given in three tiers: the model and gradient
// blocks; then stable rows, in slot order, for the leaves, the constants
// and every slot an output or a gradient row names (a tail slot's row is
// its gradient row); then temporaries, by placeTemps. A slot nothing reads
// or writes — a fused-away product — gets no row.
func (la *Lanes) lower(t *Tape, grads []int) int {
	readers := make([]int32, t.nSlots)
	named := make([]int32, t.nSlots) // by outputs
	def := make([]int32, t.nSlots)   // slot → the instruction writing it, −1 for a leaf
	for s := range def {
		def[s] = -1
	}
	for i, in := range t.instrs {
		def[in.dst] = int32(i)
		for _, x := range [...]int32{in.a, in.b, in.c} {
			if x >= 0 {
				readers[x]++
			}
		}
	}
	for _, o := range t.outs {
		for _, s := range o.slots {
			named[s]++
		}
	}
	gradNamed := make([]int32, t.nSlots)
	for _, s := range grads {
		gradNamed[s]++
	}
	// product returns the instruction of the OpMul at slot x that only its
	// reading add needs, or nil.
	product := func(x int32) *instr {
		if readers[x] != 1 || named[x] != 0 || gradNamed[x] != 0 || def[x] < 0 || t.instrs[def[x]].op != OpMul {
			return nil
		}
		return &t.instrs[def[x]]
	}
	skip := make([]bool, len(t.instrs)) // fused into an add, or into the tail
	var tail []laneProduct
	for _, in := range t.instrs {
		if in.op != OpAdd {
			continue
		}
		for _, x := range [...]int32{in.a, in.b} {
			if product(x) != nil {
				skip[def[x]] = true
			}
		}
	}

	rows, words := la.rows, int32(la.words)
	isModel := func(x int32) bool { return rows[x] >= 0 && rows[x] < words }
	for r, slot := range grads {
		s := int32(slot)
		if d := def[s]; d >= 0 && readers[s] == 0 && gradNamed[s] == 1 {
			if in := t.instrs[d]; in.op == OpMul && !isModel(in.a) && !isModel(in.b) {
				skip[d] = true
				rows[s] = words + int32(r)
				tail = append(tail, laneProduct{a: in.a, b: in.b, r: int32(r)}) // slots until rows are placed
				continue
			}
		}
		la.fallback = append(la.fallback, rowCopy{to: int32(r), from: s})
	}
	next := 2 * words
	for s := range rows {
		if rows[s] < 0 && (def[s] < 0 || named[s] > 0 || gradNamed[s] > 0) {
			rows[s] = next
			next++
		}
	}

	// The program on slots; every remaining slot without a row is a
	// temporary.
	prog := make([]laneInstr, 0, len(t.instrs))
	for i, in := range t.instrs {
		if skip[i] {
			continue
		}
		li := laneInstr{op: in.op, dst: in.dst, a: in.a, b: in.b, c: in.c, e: -1}
		if in.op == OpAdd {
			pa, pb := product(in.a), product(in.b)
			switch {
			case pa != nil && pb != nil:
				li = laneInstr{op: opMulMulAdd, dst: li.dst, a: pa.a, b: pa.b, c: pb.a, e: pb.b}
			case pa != nil:
				li = laneInstr{op: opMulAdd, dst: li.dst, a: pa.a, b: pa.b, c: li.b, e: -1}
			case pb != nil:
				li = laneInstr{op: opAddMul, dst: li.dst, a: li.a, b: pb.a, c: pb.b, e: -1}
			}
		}
		prog = append(prog, li)
	}
	next = placeTemps(prog, tail, rows, next)
	// A fallback whose value row is not a model row steps, sums or lands as
	// the product of that row and a row of ones: a·1 is a, exactly.
	fallback, ones := la.fallback[:0], next
	var unit []laneProduct
	for _, f := range la.fallback {
		if from := rows[f.from]; from >= words {
			unit = append(unit, laneProduct{a: from, b: ones, r: f.to})
		} else {
			fallback = append(fallback, rowCopy{to: f.to, from: from})
		}
	}
	la.fallback = fallback
	if len(unit) > 0 {
		next++
	}
	la.pack(prog, tail, unit, next)
	return int(next)
}

// pack puts the program's arithmetic, the update tail and the unit rows on
// the packed kernels: each maximal run of arithmetic becomes one opKernels
// instruction over its packed twins in la.kern, and each tail or unit row a
// vec.Product, their rows turned into offsets. The kernels index the arena
// unchecked, so pack panics unless every row they name lies inside its
// rows; Eval then keeps every call within the width.
func (la *Lanes) pack(prog []laneInstr, tail, unit []laneProduct, rows int32) {
	if int64(rows)*int64(la.width) > math.MaxInt32 {
		panic("dfg: lane arena too large for its row offsets")
	}
	off := func(r int32) int32 {
		if r < 0 || r >= rows {
			panic(fmt.Sprintf("dfg: lane row %d outside the arena's %d rows", r, rows))
		}
		return r * int32(la.width)
	}
	for _, li := range prog {
		p, ok := packedOps[li.op]
		if !ok {
			la.prog = append(la.prog, li)
			continue
		}
		if k := len(la.prog) - 1; k < 0 || la.prog[k].op != opKernels {
			la.prog = append(la.prog, laneInstr{op: opKernels, a: int32(len(la.kern))})
		}
		in := vec.Instr{Op: p.op, D: off(li.dst), A: off(li.a), B: off(li.b)}
		if p.args > 2 {
			in.C = off(li.c)
		}
		if p.args > 3 {
			in.E = off(li.e)
		}
		la.kern = append(la.kern, in)
		la.prog[len(la.prog)-1].b = int32(len(la.kern))
	}
	product := func(tp laneProduct) vec.Product {
		off(tp.r + int32(la.words)) // the gradient block row Sum and Prod write
		return vec.Product{M: off(tp.r), A: off(tp.a), B: off(tp.b)}
	}
	for _, tp := range tail {
		la.tail = append(la.tail, product(tp))
	}
	for _, tp := range unit {
		la.unit = append(la.unit, product(tp))
	}
}

// placeTemps gives the temporaries — the slots rows leaves at −1 — rows
// from next on by a linear scan over the program and then the tail: a
// value's row is free again after its last read, and a destination never
// takes the row of an operand that dies at its own instruction. It then
// resolves every operand of the program and the tail to its row, and
// returns the arena's row count.
func placeTemps(prog []laneInstr, tail []laneProduct, rows []int32, next int32) int32 {
	last := make([]int32, len(rows)) // a temporary's last reading instruction, tail after program
	for s := range last {
		last[s] = -1
	}
	for i := range prog {
		for _, x := range [...]int32{prog[i].a, prog[i].b, prog[i].c, prog[i].e} {
			if x >= 0 && rows[x] < 0 {
				last[x] = int32(i)
			}
		}
	}
	for i, tp := range tail {
		for _, x := range [...]int32{tp.a, tp.b} {
			if rows[x] < 0 {
				last[x] = int32(len(prog) + i)
			}
		}
	}
	temp := make([]int32, len(rows))
	var free []int32
	release := func(x int32) {
		free = append(free, temp[x])
		last[x] = -2 // released once, however often it is read
	}
	for i := range prog {
		li := &prog[i]
		if rows[li.dst] < 0 {
			if k := len(free); k > 0 {
				temp[li.dst], free = free[k-1], free[:k-1]
			} else {
				temp[li.dst] = next
				next++
			}
		}
		for _, x := range [...]int32{li.a, li.b, li.c, li.e} {
			if x >= 0 && rows[x] < 0 && last[x] == int32(i) {
				release(x)
			}
		}
		if rows[li.dst] < 0 && last[li.dst] == -1 { // written, never read
			release(li.dst)
		}
	}

	row := func(x int32) int32 {
		switch {
		case x < 0:
			return -1
		case rows[x] >= 0:
			return rows[x]
		}
		return temp[x]
	}
	for i := range prog {
		li := &prog[i]
		li.dst, li.a, li.b, li.c, li.e = row(li.dst), row(li.a), row(li.b), row(li.c), row(li.e)
	}
	for i := range tail {
		tp := &tail[i]
		tp.a, tp.b = row(tp.a), row(tp.b)
	}
	return next
}

// Row returns every lane's value of one addressable slot (slots are node
// IDs), aliasing the arena. The addressable slots are the leaves, the
// constants and every slot an output or a gradient row names: a model
// leaf's row is its element's model block row, and a gradient that joined
// the update tail shares its gradient block row, which holds its value
// after an Eval with UpdateNone. Any other slot is a temporary whose row
// later values reuse; Row panics for one.
func (la *Lanes) Row(slot int) []float64 {
	r := int(la.rows[slot])
	if r < 0 {
		panic(fmt.Sprintf("dfg: lane slot %d is a temporary: it has no row of its own", slot))
	}
	return la.vals[r*la.width : (r+1)*la.width]
}

// Model returns the model block, aliasing the arena: element row r of lane
// l at [r*width+l], rows in span order.
func (la *Lanes) Model() []float64 { return la.vals[:la.words*la.width] }

// Grads returns the gradient block, laid out like the model block. After
// an Eval with UpdateNone row r holds the value of the layout's Grads[r]
// slot; under UpdateSum each Eval adds that value to the row, so a caller
// that clears the block before its first Eval reads the lanes' running
// sums. UpdateStep uses it as scratch.
func (la *Lanes) Grads() []float64 { return la.vals[la.words*la.width : 2*la.words*la.width] }

// Bytes returns the size of the arena's rows.
func (la *Lanes) Bytes() int { return 8 * len(la.vals) }

// BindModel validates the model as Arena.BindModel does — vecs[i] is span
// i's vector, a missing symbol a nil one — and broadcasts it into every
// lane's model block. Elements past a span's Words are ignored.
func (la *Lanes) BindModel(vecs [][]float64) error {
	for i := range la.model {
		if sb := &la.model[i]; len(vecs[la.modelSpan[i]]) < sb.minLen {
			return sb.missing("model")
		}
	}
	w, first := la.width, 0
	for i, sp := range la.spans {
		v := vecs[i]
		if len(v) > sp.Words {
			v = v[:sp.Words]
		}
		vec.Broadcast(la.vals[first*w:], v, w)
		first += sp.Words
	}
	return nil
}

// BindData binds lanes first … first+len(vecs)−1 to one vector each:
// vecs[l][i] is lane first+l's i-th DataSymbols vector, a missing symbol a
// nil one. It validates every lane as Arena.BindData does before it writes
// any, and on an error binds nothing and returns the lowest failing lane's
// first error. Then each run of a symbol's loads — consecutive elements into
// consecutive rows — is one vec.Transpose over all the lanes. It panics if
// the lanes run past the arena's width.
func (la *Lanes) BindData(first int, vecs [][][]float64) error {
	n := len(vecs)
	if first < 0 || n > la.width-first {
		panic(fmt.Sprintf("dfg: lanes [%d, %d) of a %d-lane arena", first, first+n, la.width))
	}
	// cols aliases the caller's vectors until the bind returns.
	cols := la.cols[:len(la.data)*n]
	defer clear(cols)
	for i := range la.data {
		sb, col := &la.data[i], cols[i*n:(i+1)*n]
		for l, v := range vecs {
			if len(v[i]) < sb.minLen {
				return la.firstMissing(vecs)
			}
			col[l] = v[i]
		}
	}
	w := la.width
	for _, r := range la.runs {
		vec.Transpose(la.vals[int(r.row)*w+first:], w, cols[int(r.sym)*n:][:n], int(r.elem), int(r.count))
	}
	return nil
}

// firstMissing returns the lowest lane's first binding error.
func (la *Lanes) firstMissing(vecs [][][]float64) error {
	for _, v := range vecs {
		for i := range la.data {
			if sb := &la.data[i]; len(v[i]) < sb.minLen {
				return sb.missing("data")
			}
		}
	}
	return nil
}

// Eval executes the lane program on lanes [0, n), then its update tail,
// the unit rows and the fallback rows under the given update. Results stay
// in the arena (read them with Row, Model and Grads); like Arena.Eval it
// never allocates and never fails. It panics if n is outside [0, width].
//
// Each case applies, lane by lane, the expression Arena.Eval applies to its
// one lane; the operand rows are cut to the destination's length first so
// the inner loops carry no bounds checks. The arithmetic — add, subtract,
// multiply, the fused product-sums, select and < — the tail and the unit
// rows run on package vec's kernels, one call per run of instructions, and
// sigmoid, Gaussian and exp one call per row: they compute the same
// expressions to the bit. A unit row's product a·1 is a exactly, so it
// steps, sums or lands its gradient as a copy would. The steps write
// m − float64(lr·g) with g already rounded, and the sums add float64(a·b):
// the explicit conversions forbid the compiler from contracting a product
// with the subtraction or add that follows (the FMSUB the Go spec allows
// for m -= lr*g on arm64), so every GOARCH updates a lane as one Arena
// evaluation followed by a separate step or sum would. Under UpdateStep
// every fallback gradient, a model leaf, is copied into its gradient block
// row before the tail rewrites any model row.
func (la *Lanes) Eval(n int, up Update, lr float64) {
	if n < 0 || n > la.width {
		panic(fmt.Sprintf("dfg: %d lanes of a %d-lane arena", n, la.width))
	}
	w, vals := la.width, la.vals
	row := func(r int32) []float64 { return vals[int(r)*w:][:n] }
	for i := range la.prog {
		in := &la.prog[i]
		if in.op == opKernels {
			vec.Run(vals, la.kern[in.a:in.b], n)
			continue
		}
		d, a := row(in.dst), row(in.a)
		switch in.op {
		case OpDiv:
			b := row(in.b)
			for l := range d {
				d[l] = a[l] / b[l]
			}
		case OpNeg:
			for l := range d {
				d[l] = -a[l]
			}
		case OpGT:
			b := row(in.b)
			for l := range d {
				d[l] = boolVal(a[l] > b[l])
			}
		case OpGE:
			b := row(in.b)
			for l := range d {
				d[l] = boolVal(a[l] >= b[l])
			}
		case OpLE:
			b := row(in.b)
			for l := range d {
				d[l] = boolVal(a[l] <= b[l])
			}
		case OpEQ:
			b := row(in.b)
			for l := range d {
				d[l] = boolVal(a[l] == b[l])
			}
		case OpNE:
			b := row(in.b)
			for l := range d {
				d[l] = boolVal(a[l] != b[l])
			}
		case OpSigmoid:
			vec.Sigmoid(d, a)
		case OpGaussian:
			vec.NegSquareExp(d, a) // −(x·x), as EvalNonlinear
		case OpLog:
			for l := range d {
				d[l] = math.Log(a[l])
			}
		case OpExp:
			vec.Exp(d, a)
		case OpSqrt:
			for l := range d {
				d[l] = math.Sqrt(a[l])
			}
		case OpTanh:
			for l := range d {
				d[l] = math.Tanh(a[l])
			}
		case OpRelu:
			for l := range d {
				d[l] = math.Max(0, a[l])
			}
		case OpAbs:
			for l := range d {
				d[l] = math.Abs(a[l])
			}
		case OpSign:
			for l := range d {
				switch x := a[l]; {
				case x > 0:
					d[l] = 1
				case x < 0:
					d[l] = -1
				default:
					d[l] = 0
				}
			}
		}
	}
	g := int32(la.words) // the gradient block's first row
	switch up {
	case UpdateStep:
		for _, f := range la.fallback {
			copy(row(g+f.to), row(f.from))
		}
		vec.Step(vals, la.tail, n, lr)
		vec.Step(vals, la.unit, n, lr)
		for _, f := range la.fallback {
			m, d := row(f.to), row(g+f.to)
			for l := range m {
				m[l] -= float64(lr * d[l])
			}
		}
	case UpdateSum:
		vec.Sum(vals, la.tail, int(g)*w, n)
		vec.Sum(vals, la.unit, int(g)*w, n)
		for _, f := range la.fallback {
			sum, d := row(g+f.to), row(f.from)
			for l := range sum {
				sum[l] += d[l]
			}
		}
	default:
		vec.Prod(vals, la.tail, int(g)*w, n)
		vec.Prod(vals, la.unit, int(g)*w, n)
		for _, f := range la.fallback {
			copy(row(g+f.to), row(f.from))
		}
	}
}
