package pdm

// MadeKeys returns the keys ar's Take has allocated because no buffer it
// kept could hold the request.
func MadeKeys(ar *Arena) int {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	return ar.made
}
