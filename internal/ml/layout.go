package ml

// ModelLayout is where each packed symbol's elements sit in an algorithm's
// flat vectors — symbol name → index of each element — recovered once from
// index-stamped probes: Model indexes the flat model (PackModel), Data a
// sample's X followed by its Y (PackSample).
type ModelLayout struct {
	Model, Data map[string][]int
}

// NewModelLayout probes alg's PackModel and PackSample.
func NewModelLayout(alg Algorithm) ModelLayout {
	f := alg.FeatureSize()
	return ModelLayout{
		Model: probe(alg.PackModel(stamps(0, alg.ModelSize()))),
		Data:  probe(alg.PackSample(Sample{X: stamps(0, f), Y: stamps(f, f+alg.OutputSize())})),
	}
}

// stamps returns lo, lo+1, …, hi−1.
func stamps(lo, hi int) []float64 {
	s := make([]float64, hi-lo)
	for i := range s {
		s[i] = float64(lo + i)
	}
	return s
}

// probe reads the stamps each packed symbol carries back as indices.
func probe(packed map[string][]float64) map[string][]int {
	l := make(map[string][]int, len(packed))
	for name, vec := range packed {
		idx := make([]int, len(vec))
		for j, v := range vec {
			idx[j] = int(v)
		}
		l[name] = idx
	}
	return l
}

// UnpackModel flattens per-symbol model vectors back into the algorithm's
// flat layout.
func UnpackModel(alg Algorithm, packed map[string][]float64) []float64 {
	out := make([]float64, alg.ModelSize())
	for name, idx := range probe(alg.PackModel(stamps(0, len(out)))) {
		src := packed[name]
		for j, i := range idx {
			out[i] = src[j]
		}
	}
	return out
}
