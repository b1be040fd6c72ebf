package runtime

// Sum returns a copy of the accumulated sum. The buffer does not clear its
// sum between rounds, so a chunk's span is defined only once that chunk has
// completed: call Sum after WaitComplete reports the round complete.
func (ab *AggregationBuffer) Sum() []float64 {
	ab.mu.Lock()
	defer ab.mu.Unlock()
	return append([]float64(nil), ab.sum...)
}
