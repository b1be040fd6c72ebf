package runtime

// Sum returns a copy of the accumulated sum and the total weight. The
// buffer does not clear its sum between rounds, so a chunk's span is
// defined only once that chunk has completed: call Sum after WaitComplete
// reports the round complete.
func (ab *AggregationBuffer) Sum() ([]float64, float64) {
	ab.wmu.Lock()
	w := ab.weight
	ab.wmu.Unlock()
	out := make([]float64, len(ab.sum))
	copy(out, ab.sum)
	return out, w
}
