package pdm

// MadeKeys returns the keys ar's Alloc has allocated because no buffer
// Free kept could hold the request.
func MadeKeys(ar *Arena) int {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	return ar.made
}
