// Package sched is the concurrent sort-job scheduler: it owns the
// machine's global resources — an internal-memory budget (a pdm.Arena used
// as a ledger, carved per job with Reserve/Release), an on-disk scratch
// budget, and a compute budget (one par.Limiter shared by every job's
// worker pool) — and admits jobs against them.
//
// Jobs move queued → running → done/failed/canceled.  Admission is strict
// FIFO with head-of-line blocking: the head job waits until both its
// memory and disk envelopes fit, so a large job cannot be starved by a
// stream of small ones, and budget exhaustion is backpressure rather than
// failure.  Each admitted job runs on its own goroutine with its own
// cancellable context and (when the scheduler is file-backed) its own
// scratch directory, removed when the job finishes.  A job with a
// Request.Shape that finishes Done may instead keep its machine idle
// (Env.Keep): the directory is renamed Dir/idle-NNNN and the job's memory
// envelope and the machine's scratch stay charged to the ledgers, so
// running plus idle never exceeds either budget.  The next job of the
// same shape takes it at admission (Env.Idle), its directory renamed to
// that job's; when the head of the queue needs room the idle machines
// hold, the engine closes them, least recently kept first; Close and
// Drain close the rest, and New sweeps any a crash left.  Canceling a queued
// job removes it without ever reserving resources; canceling a running job
// cancels its context, which the pdm layer turns into a prompt abort of
// every subsequent I/O.
//
// With a journal, a Submitted record holds the envelope, the owner's Spec
// and, for a Request.Input, the name, length and CRC-32 of input-NNNN.page
// in the journal directory: fsynced before the record is appended, kept
// across a drain, removed after the Terminal record, swept at start-up when
// no live record names it, verified by RecoveredJob.ReadInput.
//
// The package is deliberately generic: a job is an envelope plus a Run
// function, and a kept machine is an io.Closer under an opaque shape.  The
// repro facade supplies Run functions that build a per-job Machine from
// the envelope (its arena capacity is exactly the reserved amount, its
// pool attached to the shared limiter), or reset the one they were
// handed, and sort; this package never needs to know what a pass is.
package sched
