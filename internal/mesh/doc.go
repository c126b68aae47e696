// Package mesh holds the in-memory mesh machinery of the paper's Section 3
// that the ablations run (internal/experiments A1 and A2): matrices in
// row-major order, submesh and column sorts, the dirty-row count for 0-1
// inputs, and the rolling cleanup of the paper's Step 3 / Observation 4.2.
//
// internal/core implements ThreePass1 and its two-pass variant as
// accounted PDM passes; its tests check them directly, including every
// 0-1 input class at M = 64.
package mesh
