package freelist

import "testing"

func TestTakePut(t *testing.T) {
	var l List[[]int]
	a := l.Take()
	if a == nil || *a != nil {
		t.Fatalf("Take on an empty list = %v, want a new zero value", a)
	}
	b := l.Take()
	if a == b {
		t.Fatal("two Takes lent the same value")
	}
	*a = []int{1}
	l.Put(a)
	l.Put(b)
	if got := l.Take(); got != b {
		t.Fatal("Take did not return the value Put last")
	}
	if got := l.Take(); got != a || len(*got) != 1 {
		t.Fatal("Take did not return the first value Put, as it was left")
	}
	if got := l.Take(); got == a || got == b {
		t.Fatal("an emptied list lent a value that is still out")
	}
}
