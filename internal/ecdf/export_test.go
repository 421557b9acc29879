package ecdf

// DiscrepancyBoundTwoStream exposes the two-stream reference bound to the
// external tests, which run it on envelopes from the evaluator.
func DiscrepancyBoundTwoStream(e Envelope, lambda float64) float64 {
	return e.discrepancyBoundTwoStream(&twoStreamScratch{}, lambda)
}
