// Package mesh holds the in-memory mesh machinery of the paper's Section 3
// that ablation A2 runs (internal/experiments): matrices in row-major
// order, submesh and column sorts, and the dirty-row count for 0-1 inputs.
// Ablation A1 runs the product's rolling cleanup, core.RollingPass.
//
// internal/core implements ThreePass1 and its two-pass variant as
// accounted PDM passes; its tests check them directly, including every
// 0-1 input class at M = 64.
package mesh
