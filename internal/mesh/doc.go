// Package mesh implements the mesh-sorting machinery underlying the paper's
// Section 3 algorithm ThreePass1 and its average-case variant: matrices in
// row-major order, snake (boustrophedon) row sorts, column sorts, Shearsort,
// dirty-row analysis for 0-1 inputs, and the rolling cleanup of the paper's
// Step 3 / Observation 4.2.
//
// Everything here is in-memory reference machinery; internal/core re-derives
// the same steps as explicit PDM passes.  The tests here check it against a
// plain in-memory sort and exhaustive 0-1 inputs, and ablations A1 and A2
// (internal/experiments) run it.  No test compares it with internal/core.
package mesh
