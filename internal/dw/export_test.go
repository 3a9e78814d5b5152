package dw

// ExecuteReference runs a query with the row-at-a-time engine
// (referenceCellsLocked) and the shared finalisation. It is the
// correctness oracle for the compiled engine — the equivalence tests
// assert byte-identical formatted output — and the baseline the scaling
// benchmarks measure against.
func (w *Warehouse) ExecuteReference(q Query) (*Result, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	fd, roleDim, err := w.validateLocked(q)
	if err != nil {
		return nil, err
	}
	return finalize(q, w.referenceCellsLocked(q, fd, roleDim)), nil
}
