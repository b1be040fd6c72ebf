package dsl_test

import (
	"strings"
	"testing"

	"repro/internal/cosmicnet"
	"repro/internal/dsl"
)

// fuzzParams supplies every dimension parameter the shipped sources use, so
// seeds that survive parsing also exercise analysis.
var fuzzParams = map[string]int{
	"M": 8, "IN": 4, "HID": 3, "OUT": 2,
	"NU": 4, "NV": 3, "K": 2, "C": 3,
}

// FuzzParseAndAnalyze asserts the front end's contract under arbitrary
// input: ParseAndAnalyze either returns a unit or an error — it never
// panics, never overflows the stack, and never returns (nil, nil). The
// corpus seeds are the six shipped DSL programs plus inputs aimed at the
// recursive-descent parser's depth (unary chains, paren nesting, ternaries).
func FuzzParseAndAnalyze(f *testing.F) {
	for _, src := range []string{
		dsl.SourceLinearRegression,
		dsl.SourceLogisticRegression,
		dsl.SourceSVM,
		dsl.SourceBackprop,
		dsl.SourceCollaborativeFiltering,
		dsl.SourceSoftmax,
	} {
		f.Add(src)
	}
	f.Add("model_input x[M]; model w[M]; gradient g[M]; g[1] = w[1] - x[1];")
	f.Add("iterator i[0:M]; gradient g; g = sum[i](1);")
	f.Add("gradient g; g = " + strings.Repeat("-", 300) + "1;")
	f.Add("gradient g; g = " + strings.Repeat("(", 300) + "1" + strings.Repeat(")", 300) + ";")
	f.Add("gradient g; g = 1 > 0 ? 1 ? 2 : 3 : 4;")
	f.Add("minibatch 0; learning_rate = -;")
	f.Add("aggregator sum; aggregator bogus;")

	f.Fuzz(func(t *testing.T, src string) {
		u, err := dsl.ParseAndAnalyze(src, fuzzParams)
		if err == nil && u == nil {
			t.Fatalf("ParseAndAnalyze(%q) returned neither a unit nor an error", src)
		}
	})
}

// TestParserRejectsDeepNesting pins the depth limit found by fuzzing: a
// kilobyte of '-' or '(' must come back as a parse error, not a stack
// overflow.
func TestParserRejectsDeepNesting(t *testing.T) {
	cases := []string{
		"gradient g; g = " + strings.Repeat("-", 100000) + "1;",
		"gradient g; g = " + strings.Repeat("(", 100000) + "1;",
		"gradient g; g = " + strings.Repeat("1?1:", 100000) + "1;",
	}
	for _, src := range cases {
		if _, err := dsl.Parse(src); err == nil {
			t.Errorf("deeply nested input parsed without error")
		} else if !strings.Contains(err.Error(), "nesting") && !strings.Contains(err.Error(), "expected") {
			t.Errorf("unexpected error: %v", err)
		}
	}
}

// TestParserAcceptsReasonableNesting proves the limit is far above what
// real programs use.
func TestParserAcceptsReasonableNesting(t *testing.T) {
	src := "gradient g; g = " + strings.Repeat("(", 50) + "--1" + strings.Repeat(")", 50) + ";"
	if _, err := dsl.Parse(src); err != nil {
		t.Fatalf("50-deep nesting rejected: %v", err)
	}
}

// TestMaxElementsIsOneFrame pins the size bound to what it is derived from:
// the largest vector of 8-byte words one frame can carry.
func TestMaxElementsIsOneFrame(t *testing.T) {
	if dsl.MaxElements != cosmicnet.MaxFrameBytes/8 {
		t.Errorf("MaxElements = %d, one frame carries %d words", dsl.MaxElements, cosmicnet.MaxFrameBytes/8)
	}
}
