// Package core implements the paper's PDM sorting algorithms — the primary
// contribution of Rajasekaran & Sen (IPPS 2005) — as explicitly scheduled
// passes over a pdm.Array:
//
//   - ThreePass1 (§3.1): mesh-based, 3 passes, M·√M keys.
//   - ExpTwoPassMesh (§3.2): 2 passes w.h.p., ~M·√M/log M keys.
//   - ThreePass2 (§4): LMM-based, 3 passes, M·√M keys.
//   - ExpectedTwoPass (§5): 2 passes w.h.p., ~M·√M/log M keys.
//   - ExpectedThreePass (§6): 3 passes w.h.p., ~M^1.75 keys.
//   - SevenPass (§6.1): 7 passes, M² keys.
//   - ExpectedSixPass (§6.2): 6 passes w.h.p., ~M²/log M keys.
//   - IntegerSort / RadixSort (§7): O(1)-pass integer sorting.
//
// All comparison algorithms use block size B = √M, per the paper.  Every
// in-core buffer comes from the array's Arena, so tests can assert the
// algorithms respect the memory model (2M peak during cleanup phases — the
// paper's own Section 5 envelope — and M + DB elsewhere, each plus the
// sort kernel's M of scratch).
//
// The passes share three pieces.  Every read–compute–write pass (run
// formation, the (l,m)-merge's group pass and the column passes, the outer
// merge's unshuffle and group merges, OnePass) is a stream.Pass call
// holding only its read plan and compute.  A pass orders its output only
// as far as the passes after it need: ThreePass2's and ExpectedTwoPass's
// runs and ThreePass2's L_j are block-exact (memsort.RadixBlocks), and
// only their cleanup sorts (see ThreePass2 and ExpectedTwoPass for why
// that suffices).  Every
// cleanup pass is RollingPass into a sink: the caller's emit, or a fresh
// stripe written behind (newSink).  SevenPass, SevenPassMesh and
// ExpectedSixPass are superrunMerge with their own superrun sort.
package core
