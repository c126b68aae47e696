package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Type tags a lifecycle record.  The values are part of the on-disk
// format and must never be renumbered.
type Type uint8

const (
	// Submitted carries the job's opaque spec bytes; it is the first
	// record a job ever writes and makes the job "live".
	Submitted Type = 1
	// Admitted marks the job as having started running (resources
	// reserved, scratch dir created).
	Admitted Type = 2
	// Checkpoint carries a pass-boundary manifest; the latest one per
	// job is the resume point after a crash.
	Checkpoint Type = 3
	// Terminal marks the job done/failed/canceled; the job is no
	// longer live and its records are dropped at the next compaction.
	Terminal Type = 4
)

func (t Type) String() string {
	switch t {
	case Submitted:
		return "submitted"
	case Admitted:
		return "admitted"
	case Checkpoint:
		return "checkpoint"
	case Terminal:
		return "terminal"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Record is one framed journal entry.  Data is an opaque payload owned
// by the writer (the sched engine stores job specs, pass manifests and
// terminal states as JSON).
type Record struct {
	Seq  uint64          `json:"seq"`
	Type Type            `json:"type"`
	Job  int             `json:"job"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Options configures a Journal.
type Options struct {
	// SegmentBytes rotates the active segment once it grows past this
	// size.  0 means 1 MiB.
	SegmentBytes int64
}

// Metrics is a point-in-time snapshot of journal health counters.
type Metrics struct {
	Bytes           int64 // live segment bytes on disk (excludes snapshot)
	Segments        int   // live segment files
	Appends         int64 // records appended this process
	FsyncErrors     int64 // failed fsyncs on append
	Compactions     int64 // successful Compact calls
	ReplayedRecords int   // records recovered at Open
	TornTails       int   // partial trailing frames dropped at Open/Replay
	ReplayErrors    int   // corrupt frames (bad CRC / bad length) hit at Open/Replay
}

// maxFrame bounds a single record; anything larger is treated as
// corruption rather than an allocation request.
const maxFrame = 16 << 20

const defaultSegmentBytes = 1 << 20

// frame layout: [4B little-endian payload len][4B little-endian
// CRC32-IEEE of payload][payload JSON].
const frameHeader = 8

// Journal is an append-only, fsync'd, CRC-framed log with segment
// rotation and compacting snapshots.  All methods are safe for
// concurrent use.
type Journal struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File // active segment
	segBytes int64    // bytes in the active segment
	allBytes int64    // bytes across all live segments
	segments []string // live segment paths, oldest first, excluding active
	active   string   // active segment path
	nextSeq  uint64
	closed   bool
	m        Metrics
	replayed []Record // records recovered at Open, consumed by Replayed
}

type snapshot struct {
	// LastSeq is the compaction cutoff: every record with seq <=
	// LastSeq is summarized by Records; segments only matter for seq >
	// LastSeq.
	LastSeq uint64   `json:"lastSeq"`
	Records []Record `json:"records"`
}

func segName(firstSeq uint64) string { return fmt.Sprintf("wal-%016d.log", firstSeq) }
func snapName(lastSeq uint64) string { return fmt.Sprintf("snap-%016d.json", lastSeq) }
func isSegName(name string) bool {
	return strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log")
}
func isSnapName(name string) bool {
	return strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".json")
}

// Open opens (creating if needed) the journal in dir, replays every
// intact record, repairs the log in place (truncating a torn tail and
// dropping anything after a corrupt frame), and returns the journal
// ready for appends.  The replayed records are available once via
// Replayed.
func Open(dir string, opts Options) (*Journal, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, opts: opts, nextSeq: 1}
	recs, info, err := replay(dir, j)
	if err != nil {
		return nil, err
	}
	j.m.ReplayedRecords = len(recs)
	j.m.TornTails = info.TornTails
	j.m.ReplayErrors = info.ReplayErrors
	j.replayed = recs
	// The snapshot cutoff can sit past the last surviving record (dead
	// jobs' records are dropped at compaction), so take the max.
	if n := len(recs); n > 0 && recs[n-1].Seq+1 > j.nextSeq {
		j.nextSeq = recs[n-1].Seq + 1
	}
	if info.snapLastSeq+1 > j.nextSeq {
		j.nextSeq = info.snapLastSeq + 1
	}
	// Reopen the newest surviving segment for append, or start fresh.
	if j.active == "" {
		if err := j.newSegmentLocked(); err != nil {
			return nil, err
		}
	} else {
		f, err := os.OpenFile(j.active, os.O_RDWR|os.O_APPEND, 0o666)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: %w", err)
		}
		j.f, j.segBytes = f, st.Size()
	}
	j.m.Segments = len(j.segments) + 1
	j.m.Bytes = j.allBytes + j.segBytes
	return j, nil
}

// ReplayInfo describes what a read-only Replay encountered.
type ReplayInfo struct {
	TornTails    int
	ReplayErrors int

	snapLastSeq uint64
}

// Replay reads every intact record from the journal in dir without
// modifying anything on disk.  It is safe to run against a journal
// another process is actively appending to (the in-flight tail frame
// is simply reported as torn).
func Replay(dir string) ([]Record, ReplayInfo, error) {
	return replay(dir, nil)
}

// replay scans snapshot+segments in dir.  When j is non-nil it repairs
// in place: a torn or corrupt frame truncates that segment at the bad
// offset and deletes every later segment.  It also records the
// surviving segment list into j.
func replay(dir string, j *Journal) ([]Record, ReplayInfo, error) {
	var info ReplayInfo
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) && j == nil {
			return nil, info, nil
		}
		return nil, info, fmt.Errorf("journal: %w", err)
	}
	var segs, snaps []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch {
		case isSegName(e.Name()):
			segs = append(segs, e.Name())
		case isSnapName(e.Name()):
			snaps = append(snaps, e.Name())
		}
	}
	sort.Strings(segs)
	sort.Strings(snaps)

	var recs []Record
	if len(snaps) > 0 {
		// Only the newest snapshot counts; older ones are leftovers
		// from an interrupted compaction.
		name := snaps[len(snaps)-1]
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, info, fmt.Errorf("journal: %w", err)
		}
		var sn snapshot
		if err := json.Unmarshal(raw, &sn); err != nil {
			return nil, info, fmt.Errorf("journal: snapshot %s: %w", name, err)
		}
		info.snapLastSeq = sn.LastSeq
		recs = append(recs, sn.Records...)
	}

	stop := false // a repaired segment drops everything after it
	var live []string
	for i, name := range segs {
		path := filepath.Join(dir, name)
		if stop {
			if j != nil {
				os.Remove(path)
			}
			continue
		}
		segRecs, goodBytes, segErr := scanSegment(path, i == len(segs)-1, &info)
		for _, r := range segRecs {
			if r.Seq > info.snapLastSeq {
				recs = append(recs, r)
			}
		}
		if segErr {
			stop = true
			if j != nil {
				if goodBytes == 0 {
					os.Remove(path)
					continue
				}
				if err := os.Truncate(path, goodBytes); err != nil {
					return nil, info, fmt.Errorf("journal: repair %s: %w", name, err)
				}
			}
		}
		live = append(live, path)
	}
	if j != nil {
		if len(live) > 0 {
			j.active = live[len(live)-1]
			j.segments = live[:len(live)-1]
			for _, p := range j.segments {
				if st, err := os.Stat(p); err == nil {
					j.allBytes += st.Size()
				}
			}
		}
	}
	return recs, info, nil
}

// scanSegment reads intact frames from one segment file.  It returns
// the records, the byte offset up to which the file is intact, and
// whether a bad frame was hit (torn tail or corruption).
func scanSegment(path string, last bool, info *ReplayInfo) ([]Record, int64, bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		info.ReplayErrors++
		return nil, 0, true
	}
	var recs []Record
	off := int64(0)
	for int64(len(raw))-off > 0 {
		rest := raw[off:]
		if len(rest) < frameHeader {
			// Partial header: a crash mid-append on the final segment,
			// corruption anywhere else.
			if last {
				info.TornTails++
			} else {
				info.ReplayErrors++
			}
			return recs, off, true
		}
		n := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if n == 0 || n > maxFrame {
			info.ReplayErrors++
			return recs, off, true
		}
		if int64(len(rest)) < frameHeader+int64(n) {
			if last {
				info.TornTails++
			} else {
				info.ReplayErrors++
			}
			return recs, off, true
		}
		payload := rest[frameHeader : frameHeader+int64(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			if last && int64(len(rest)) == frameHeader+int64(n) {
				// Garbled final frame of the final segment: torn write.
				info.TornTails++
			} else {
				info.ReplayErrors++
			}
			return recs, off, true
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			info.ReplayErrors++
			return recs, off, true
		}
		recs = append(recs, r)
		off += frameHeader + int64(n)
	}
	return recs, off, false
}

// Replayed returns the records recovered when the journal was opened,
// in replay order.  The slice is released after the first call.
func (j *Journal) Replayed() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := j.replayed
	j.replayed = nil
	return r
}

// newSegmentLocked starts a fresh active segment named by the next
// sequence number.  Caller holds j.mu (or is still constructing j).
func (j *Journal) newSegmentLocked() error {
	if j.f != nil && j.segBytes == 0 {
		return nil // already at a fresh segment boundary
	}
	path := filepath.Join(j.dir, segName(j.nextSeq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if j.f != nil {
		j.f.Sync() //nolint:errcheck // rotation; the data was already fsync'd per append
		j.f.Close()
		j.segments = append(j.segments, j.active)
		j.allBytes += j.segBytes
	}
	j.f, j.active, j.segBytes = f, path, 0
	SyncDir(j.dir)
	return nil
}

// Append frames, writes and fsyncs one record, rotating the segment
// afterwards if it grew past SegmentBytes.  It returns the record with
// its assigned sequence number.
func (j *Journal) Append(typ Type, job int, data []byte) (Record, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return Record{}, fmt.Errorf("journal: closed")
	}
	r := Record{Seq: j.nextSeq, Type: typ, Job: job, Data: json.RawMessage(data)}
	payload, err := json.Marshal(r)
	if err != nil {
		return Record{}, fmt.Errorf("journal: %w", err)
	}
	if len(payload) > maxFrame {
		return Record{}, fmt.Errorf("journal: record too large (%d bytes)", len(payload))
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	if _, err := j.f.Write(frame); err != nil {
		return Record{}, fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.m.FsyncErrors++
		return Record{}, fmt.Errorf("journal: fsync: %w", err)
	}
	j.nextSeq++
	j.segBytes += int64(len(frame))
	j.m.Appends++
	if j.segBytes >= j.opts.SegmentBytes {
		if err := j.newSegmentLocked(); err != nil {
			return Record{}, err
		}
	}
	return r, nil
}

// Compact folds the log down to the given live records: it rotates the
// active segment, writes a snapshot covering every sequence number
// assigned so far, then deletes the now-redundant segments and any
// older snapshots.  The caller supplies the records that must survive
// (live jobs' submitted/admitted/latest-checkpoint entries, in replay
// order, with their original sequence numbers).
func (j *Journal) Compact(live []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	if err := j.newSegmentLocked(); err != nil {
		return err
	}
	cutoff := j.nextSeq - 1
	sn := snapshot{LastSeq: cutoff, Records: live}
	raw, err := json.Marshal(sn)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	final := filepath.Join(j.dir, snapName(cutoff))
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, raw); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	SyncDir(j.dir)
	// Everything with seq <= cutoff now lives in the snapshot: the old
	// segments and any older snapshot are garbage.
	for _, p := range j.segments {
		os.Remove(p)
	}
	j.segments = nil
	j.allBytes = 0
	entries, err := os.ReadDir(j.dir)
	if err == nil {
		for _, e := range entries {
			if isSnapName(e.Name()) && e.Name() != snapName(cutoff) {
				os.Remove(filepath.Join(j.dir, e.Name()))
			}
		}
	}
	j.m.Compactions++
	return nil
}

// Dir returns the journal's directory; sched keeps input files beside the log.
func (j *Journal) Dir() string { return j.dir }

// LogBytes reports the bytes held by live segments (the compaction
// trigger input; the snapshot is excluded since compaction can't
// shrink it).
func (j *Journal) LogBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.allBytes + j.segBytes
}

// Metrics returns a snapshot of the journal's health counters.
func (j *Journal) Metrics() Metrics {
	j.mu.Lock()
	defer j.mu.Unlock()
	m := j.m
	m.Bytes = j.allBytes + j.segBytes
	m.Segments = len(j.segments) + 1
	return m
}

// Close fsyncs and closes the active segment.  Appends after Close
// fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SyncDir fsyncs a directory so renames/creates within it are durable.
// Best-effort: some platforms refuse to fsync directories.
func SyncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync() //nolint:errcheck // best-effort
	d.Close()
}
