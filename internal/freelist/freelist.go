// Package freelist is a mutex-guarded list of reusable values.  Unlike a
// sync.Pool, a collection does not empty it, so a warm caller allocates the
// same whether or not the GC ran before it; and it never holds more values
// than were out at once, because only what was taken comes back.
package freelist

import "sync"

// List holds *T values handed back by Put.  The zero List is empty and
// ready to use.
type List[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Take returns the value Put handed back last, or a new zero T when the
// list is empty.  Each value is lent to one caller until it is Put again.
func (l *List[T]) Take() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// Put hands x back for a later Take.  The caller first drops whatever x
// should not keep alive.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}
