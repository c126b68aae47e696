// Package pdm implements the Parallel Disk Model (PDM) of Vitter and Shriver
// as used by Rajasekaran and Sen (IPPS 2005): a machine with D independent
// disks, block size B, and internal memory of M keys.  In one parallel I/O
// step the machine may transfer at most one block per disk.  A "pass" over N
// keys is N/(DB) parallel read steps plus the same number of write steps.
//
// The package provides disk backends — an in-memory block store (MemDisk),
// which is exact and deterministic, a real-file backend (FileDisk) that
// preads/pwrites the caller's words in place (one call per run of a disk's
// consecutive blocks in a request: ExtentDisk), a memory-mapped backend
// (MmapDisk) that serves blocks as in-place word views with the same
// on-disk format, and a latency-modeling decorator (LatencyDisk), the one
// disk an Array forks per-disk goroutines for — plus the machinery every PDM
// algorithm in this repository is written against: vectored block I/O with
// step accounting (Array.ReadV / Array.WriteV), the transfer/charge split
// the streaming layer builds on (Array.TransferV / Array.ChargeV, see
// internal/stream), zero-copy block borrowing where the backend supports
// it (ZeroCopyDisk, Array.BorrowReadV / Array.BorrowWrite — physical
// transfers the caller pairs with ChargeV, so accounting stays identical
// across backends), striped logical arrays (Stripe), and a metered
// internal-memory arena (Arena).
//
// The unit of data is the key, an int64.  Records are keys, as in the paper.
package pdm
