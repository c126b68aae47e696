package records

import "testing"

func TestRangeShard(t *testing.T) {
	splitters := []int64{10, 20}
	cases := []struct {
		key  int64
		want int
	}{
		{-5, 0}, {9, 0},
		{10, 1}, // equal to a splitter goes right
		{15, 1}, {19, 1},
		{20, 2}, {100, 2},
	}
	for _, tc := range cases {
		if got := RangeShard(tc.key, splitters); got != tc.want {
			t.Fatalf("RangeShard(%d) = %d, want %d", tc.key, got, tc.want)
		}
	}
	if got := RangeShard(42, nil); got != 0 {
		t.Fatalf("no splitters: shard %d, want 0", got)
	}
}
