package wal

// Segments returns the current segment file names in sequence order.
func (w *WAL) Segments() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, len(w.segments))
	for i, s := range w.segments {
		out[i] = s.name
	}
	return out
}
