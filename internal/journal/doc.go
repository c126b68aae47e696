// Package journal is the durability substrate for the job scheduler:
// an append-only, fsync-per-append, CRC-framed write-ahead log of job
// lifecycle records with segment rotation and compacting snapshots.
//
// # Record stream
//
// The log is a sequence of records, each tagged with a monotonically
// increasing sequence number, a Type and a job id, carrying an opaque
// JSON payload owned by the writer:
//
//	Submitted  the job's descriptor, as accepted at the API boundary
//	Admitted   resources reserved, the job started running
//	Checkpoint a pass-boundary manifest (the resume point)
//	Terminal   done / failed / canceled
//
// A job's life is the subsequence of its records; replaying the whole
// log left to right reconstructs every job's last known state.  A job
// with a Submitted record and no Terminal record is live: queued if it
// has no Admitted record, running (resumable from its latest
// Checkpoint, if any) otherwise.  Records hold descriptors and manifests,
// not data: a job's input is a file the writer keeps under Dir (sched's
// input-NNNN.page, durable before the Submitted record that names it).
//
// # On-disk format
//
// Records are framed as
//
//	[4B little-endian payload length][4B little-endian CRC32-IEEE][JSON payload]
//
// and appended to segment files named wal-<firstSeq>.log, fsync'd per
// append.  When the active segment passes Options.SegmentBytes the
// journal rotates to a fresh one.  Compact writes snap-<cutoff>.json —
// the caller-supplied live records plus the cutoff sequence number —
// via tmp-file + fsync + rename, then deletes the segments it
// subsumes.  Replay is snapshot records first, then segment records
// with seq > cutoff.
//
// # Crash tolerance
//
// Open repairs the log before use: a partial trailing frame (a crash
// mid-append) is truncated away and counted as a torn tail; a frame
// with a bad CRC or an implausible length stops replay at that point,
// truncates the segment there, and drops all later segments — after a
// corruption the ordering guarantee is gone, so nothing past it can be
// trusted.  Both outcomes are deterministic: the same bytes on disk
// always replay to the same record sequence.  Replay is the read-only
// variant (no truncation, no deletes) and is safe to run against a
// journal another process is appending to.
package journal
