package dsl

import (
	"strings"
	"testing"
)

func TestTokenizeBasics(t *testing.T) {
	toks, err := Tokenize("model w[M]; g[i] = (c > 1) ? 0 : -y * x[i]; // comment\n")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]TokenKind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.Kind
	}
	want := []TokenKind{
		TokModel, TokIdent, TokLBracket, TokIdent, TokRBracket, TokSemi,
		TokIdent, TokLBracket, TokIdent, TokRBracket, TokAssign,
		TokLParen, TokIdent, TokGT, TokNumber, TokRParen, TokQuestion,
		TokNumber, TokColon, TokMinus, TokIdent, TokStar, TokIdent,
		TokLBracket, TokIdent, TokRBracket, TokSemi, TokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, kinds[i], want[i])
		}
	}
}

func TestTokenizeNumbers(t *testing.T) {
	cases := map[string]string{
		"3":       "3",
		"3.5":     "3.5",
		"0.001":   "0.001",
		"1e-3":    "1e-3",
		"2.5E+10": "2.5E+10",
	}
	for src, want := range cases {
		toks, err := Tokenize(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if toks[0].Kind != TokNumber || toks[0].Text != want {
			t.Errorf("%q: got %s %q", src, toks[0].Kind, toks[0].Text)
		}
	}
}

func TestTokenizeComparisonOperators(t *testing.T) {
	toks, err := Tokenize(">= <= == != > < =")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{TokGE, TokLE, TokEQ, TokNE, TokGT, TokLT, TokAssign, TokEOF}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d: got %s, want %s", i, toks[i].Kind, k)
		}
	}
}

func TestTokenizeErrors(t *testing.T) {
	for _, src := range []string{"@", "#", "w & x", "!"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("%q: expected lex error", src)
		}
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := Tokenize("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("b at %v, want 2:3", toks[1].Pos)
	}
}

func TestParseSVMProgram(t *testing.T) {
	prog, err := Parse(SourceSVM)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Decls) != 5 {
		t.Errorf("got %d decls, want 5", len(prog.Decls))
	}
	if len(prog.Stmts) != 3 {
		t.Errorf("got %d stmts, want 3", len(prog.Stmts))
	}
	if !prog.HasAggregator || prog.Aggregator != AggAverage {
		t.Errorf("aggregator = %v (has=%v)", prog.Aggregator, prog.HasAggregator)
	}
	if prog.MiniBatch != 10000 {
		t.Errorf("minibatch = %d, want 10000", prog.MiniBatch)
	}
	if prog.LearningRate != 0.01 {
		t.Errorf("learning rate = %g, want 0.01", prog.LearningRate)
	}
}

func TestParsePrecedence(t *testing.T) {
	prog, err := Parse("g = a + b * c; aggregator sum;")
	if err != nil {
		t.Fatal(err)
	}
	got := prog.Stmts[0].RHS.String()
	if got != "(a + (b * c))" {
		t.Errorf("precedence: got %s", got)
	}
}

func TestParseTernaryAndComparison(t *testing.T) {
	prog, err := Parse("g = c < 1 ? 0 - y : 0; aggregator sum;")
	if err != nil {
		t.Fatal(err)
	}
	cond, ok := prog.Stmts[0].RHS.(*CondExpr)
	if !ok {
		t.Fatalf("RHS is %T, want *CondExpr", prog.Stmts[0].RHS)
	}
	if _, ok := cond.Cond.(*BinaryExpr); !ok {
		t.Errorf("cond is %T, want comparison", cond.Cond)
	}
}

func TestParseReduction(t *testing.T) {
	prog, err := Parse("p = sum[i](w[i] * x[i]); q = pi[i](w[i]); aggregator average;")
	if err != nil {
		t.Fatal(err)
	}
	r0, ok := prog.Stmts[0].RHS.(*Reduce)
	if !ok || r0.Kind != ReduceSum || r0.Iter != "i" {
		t.Errorf("stmt 0: %v", prog.Stmts[0].RHS)
	}
	r1, ok := prog.Stmts[1].RHS.(*Reduce)
	if !ok || r1.Kind != ReduceProd {
		t.Errorf("stmt 1: %v", prog.Stmts[1].RHS)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"model w[M]",            // missing semicolon
		"g = ;",                 // empty RHS
		"iterator i[0:M;",       // missing bracket
		"g = sum(i)(x);",        // malformed reduction
		"minibatch -5;",         // negative batch
		"minibatch 0;",          // zero batch
		"aggregator median;",    // unknown aggregator
		"g = a ? b;",            // incomplete ternary
		"model_input x[M,];",    // trailing comma
		"g = (a + b;",           // unbalanced paren
		"learning_rate = 0.1",   // missing semicolon
		"w[i = 3;",              // unterminated subscript
		"unexpected_top (3+4);", // call at top level
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: expected parse error", src)
		}
	}
}

func TestAnalyzeResolvesDims(t *testing.T) {
	u, err := ParseAndAnalyze(SourceLinearRegression, map[string]int{"M": 64})
	if err != nil {
		t.Fatal(err)
	}
	w := u.Symbols["w"]
	if w == nil || w.Kind != KindModel || w.Size() != 64 {
		t.Fatalf("w = %+v", w)
	}
	it := u.Symbols["i"]
	if it.Lo != 0 || it.Hi != 64 {
		t.Errorf("iterator range [%d:%d), want [0:64)", it.Lo, it.Hi)
	}
	if u.ModelSize() != 64 || u.GradientSize() != 64 {
		t.Errorf("model=%d gradient=%d, want 64/64", u.ModelSize(), u.GradientSize())
	}
	if u.InputSize() != 65 { // x[64] + scalar y
		t.Errorf("input size = %d, want 65", u.InputSize())
	}
}

func TestAnalyzeInterimSymbols(t *testing.T) {
	u, err := ParseAndAnalyze(SourceBackprop, map[string]int{"IN": 8, "HID": 4, "OUT": 2})
	if err != nil {
		t.Fatal(err)
	}
	h := u.Symbols["h"]
	if h == nil || h.Kind != KindInterim || h.Size() != 4 {
		t.Fatalf("h = %+v", h)
	}
	if u.ModelSize() != 8*4+4*2 {
		t.Errorf("model size = %d", u.ModelSize())
	}
	g1 := u.Symbols["g1"]
	if g1.Kind != KindGradient || g1.Size() != 32 {
		t.Errorf("g1 = %+v", g1)
	}
}

func TestAnalyzeAllFamilies(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		params map[string]int
	}{
		{"linreg", SourceLinearRegression, map[string]int{"M": 16}},
		{"logreg", SourceLogisticRegression, map[string]int{"M": 16}},
		{"svm", SourceSVM, map[string]int{"M": 16}},
		{"backprop", SourceBackprop, map[string]int{"IN": 6, "HID": 4, "OUT": 3}},
		{"cf", SourceCollaborativeFiltering, map[string]int{"NU": 5, "NV": 7, "K": 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			u, err := ParseAndAnalyze(c.src, c.params)
			if err != nil {
				t.Fatal(err)
			}
			if u.ModelSize() == 0 || u.GradientSize() == 0 {
				t.Errorf("empty model or gradient")
			}
			if u.ModelSize() != u.GradientSize() {
				t.Errorf("model size %d != gradient size %d", u.ModelSize(), u.GradientSize())
			}
		})
	}
}

func TestAnalyzeErrors(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		params map[string]int
	}{
		{"undefined var", "g = q + 1; aggregator sum;", nil},
		{"missing param", "model w[M]; aggregator sum;", nil},
		{"dup decl", "model w; model w; aggregator sum;", nil},
		{"assign to input", "model_input x; x = 3; aggregator sum;", nil},
		{"assign to iterator", "iterator i[0:4]; i = 3; aggregator sum;", nil},
		{"gradient unassigned", "gradient g[4]; aggregator sum;", nil},
		{"no aggregator", "g = 1;", nil},
		{"rank mismatch", "model w[4]; g = w; aggregator sum;", nil},
		{"iterator unbound", "iterator i[0:4]; model w[4]; g = w[i] + 0; gq = i; aggregator sum;", nil},
		{"empty iterator", "iterator i[4:4]; g = 1; aggregator sum;", nil},
		{"bad function", "g = softplus(3); aggregator sum;", nil},
		{"interim before assign", "g = t + 1; t = 2; aggregator sum;", nil},
		{"rebind iterator", "iterator i[0:4]; model w[4]; g = sum[i](sum[i](w[i])); aggregator sum;", nil},
		{"negative dim", "model w[0-3]; g = 1; aggregator sum;", nil},
		{"assign to param", "M = 3; g = M; aggregator sum;", map[string]int{"M": 8}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseAndAnalyze(c.src, c.params); err == nil {
				t.Errorf("expected analysis error")
			}
		})
	}
}

func TestLinesOfCode(t *testing.T) {
	prog, err := Parse(SourceSVM)
	if err != nil {
		t.Fatal(err)
	}
	loc := prog.LinesOfCode()
	// Table 1 reports 22-55 LoC across the suite; the SVM program should be
	// near the bottom of that range.
	if loc < 8 || loc > 30 {
		t.Errorf("SVM LoC = %d, expected a small program", loc)
	}
}

func TestExprString(t *testing.T) {
	prog, err := Parse("g[i] = (c < 1) ? (0 - y * x[i]) : 0; aggregator sum;")
	if err != nil {
		t.Fatal(err)
	}
	s := prog.Stmts[0].RHS.String()
	for _, want := range []string{"c < 1", "y * x[i]", "?"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestIteratorShadowingParamRejected(t *testing.T) {
	_, err := ParseAndAnalyze("model w[M]; iterator M[0:4]; g = 1; aggregator sum;",
		map[string]int{"M": 8})
	if err == nil {
		t.Error("expected error for iterator shadowing a parameter")
	}
}
