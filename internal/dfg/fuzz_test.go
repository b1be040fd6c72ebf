package dfg

import (
	"strings"
	"testing"

	"repro/internal/dsl"
)

// fuzzParams supplies every dimension parameter the shipped sources use.
var fuzzParams = map[string]int{
	"M": 8, "IN": 4, "HID": 3, "OUT": 2,
	"NU": 4, "NV": 3, "K": 2, "C": 3,
}

// fuzzNodeBudget keeps each fuzzed translation small: a program the bound
// admits but that could build more nodes than this is analyzed and skipped,
// not translated. Programs past MaxNodes still go through Translate, which
// must refuse them without building anything.
const fuzzNodeBudget = 1 << 16

// FuzzTranslate asserts the Translator's contract under arbitrary input:
// parse, analyze and translate never panic, Translate never returns
// (nil, nil), and every graph it returns passes Validate. The seeds are the
// shipped programs plus the size bombs TestTranslateRefusesOversizedPrograms
// pins.
func FuzzTranslate(f *testing.F) {
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
	f.Add("aggregator average; model_input x[2]; model w[3037000500, 3037000500]; gradient g[3037000500, 3037000500]; iterator i[0:1]; g[i, i] = w[i, i] - x[0];")
	f.Add("aggregator average; model_input x[2]; model w[2000000000]; gradient g[2000000000]; iterator i[0:1]; g[i] = w[i] - x[0];")
	f.Add("aggregator average; model_input x[M]; model w[M]; gradient g[M]; iterator i[0:M]; iterator j[0:M]; g[i] = sum[j](sum[i](w[j] * x[i]));")
	f.Add("aggregator sum; model_input x[M]; model w[M]; gradient g[M]; iterator i[0:M]; g[i] = x[i] > 0 ? w[i] * x[i] : -w[i];")
	f.Add("aggregator sum; model w[2]; gradient g[2]; iterator i[0:2]; t[i] = w[i] * w[i]; g[i] = t[1 - i] + 1 / 0;")
	f.Add("aggregator sum; model w[M]; gradient g[M]; iterator i[0:M]; g[i] = w[i + 1];")
	f.Add("aggregator sum; gradient g; g = " + strings.Repeat("-", 50) + "1;")

	f.Fuzz(func(t *testing.T, src string) {
		u, err := dsl.ParseAndAnalyze(src, fuzzParams)
		if err != nil {
			return
		}
		if checkWork(u, MaxNodes) == nil && checkWork(u, fuzzNodeBudget) != nil {
			return
		}
		g, err := Translate(u)
		if err != nil {
			if g != nil {
				t.Fatalf("Translate(%q) returned a graph with error %v", src, err)
			}
			return
		}
		if g == nil {
			t.Fatalf("Translate(%q) returned neither a graph nor an error", src)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("Translate(%q) built an invalid graph: %v", src, err)
		}
	})
}
