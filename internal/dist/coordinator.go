package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pdm"
	"repro/internal/plan"
	"repro/internal/records"
	"repro/internal/wire"
)

// Config describes one coordinator: the worker fleet and the knobs for the
// job it will run there.
type Config struct {
	// Workers are the pdmd base URLs (e.g. "http://host:8080"), one per
	// node.  One worker degenerates to a remote single-machine sort.
	Workers []string
	// Client is the HTTP client shared by all worker calls; nil selects
	// http.DefaultClient.  Per-request deadlines come from RequestTimeout,
	// not the client.
	Client *http.Client
	// PageKeys bounds one upload or download page in keys; <= 0 selects
	// 8192.  Smaller pages mean more requests but a smaller largest
	// message.
	PageKeys int
	// Concurrency bounds in-flight page requests — uploads, then result
	// downloads — across all shards; <= 0 selects 4.
	Concurrency int
	// RequestTimeout is the hard deadline for one worker request; <= 0
	// selects 30 seconds.
	RequestTimeout time.Duration
	// Alg and BlockLatencyUS pass through to every shard job's descriptor
	// (zero values defer to each worker's defaults); machine geometry and
	// backend are always the worker's own.
	Alg            core.Alg
	BlockLatencyUS int64
	// Label prefixes every shard job's label on the workers.
	Label string
}

const (
	// retries is how many times a transient worker failure is retried
	// (with exponential backoff) before the job fails.
	retries = 3
	// splitterAlpha is the splitter-sampling confidence (Θ(k·α·log n)
	// sample keys).
	splitterAlpha = 1
)

// Coordinator executes sort jobs across a fixed worker fleet.  It is safe
// for concurrent use; each Sort call is one distributed job.
type Coordinator struct {
	cfg     Config
	clients []*client
	sem     chan struct{} // bounds in-flight page uploads and downloads
	seq     atomic.Int64  // distinguishes this coordinator's upload ids
}

// New validates the config and builds a coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("dist: no workers configured")
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.PageKeys <= 0 {
		cfg.PageKeys = 8192
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.Label == "" {
		cfg.Label = "dist"
	}
	c := &Coordinator{cfg: cfg, sem: make(chan struct{}, cfg.Concurrency)}
	for _, w := range cfg.Workers {
		c.clients = append(c.clients, &client{
			base:    w,
			http:    cfg.Client,
			timeout: cfg.RequestTimeout,
			retries: retries,
		})
	}
	return c, nil
}

// ShardReport is one worker's slice of a distributed job.
type ShardReport struct {
	Worker    string    `json:"worker"`
	JobID     int       `json:"jobID"`
	N         int       `json:"n"`
	Algorithm string    `json:"algorithm"`
	Passes    float64   `json:"passes"`
	IO        pdm.Stats `json:"io"`
}

// Report aggregates a distributed job's accounting: per-shard passes and
// I/O as the workers measured them, combined into the fleet view.  Passes
// is the keys-weighted mean (the paper's currency, now per node);
// MaxPasses the critical path — with balanced shards the two are close,
// and their gap is the skew the splitter sampling is there to bound.
type Report struct {
	N              int           `json:"n"`
	Workers        int           `json:"workers"`
	SampleSize     int           `json:"sampleSize"`
	Splitters      []int64       `json:"splitters"`
	Shards         []ShardReport `json:"shards"`
	Passes         float64       `json:"passes"`
	MaxPasses      float64       `json:"maxPasses"`
	IO             pdm.Stats     `json:"io"`
	ElapsedSeconds float64       `json:"elapsedSeconds"`
	PhaseSeconds   PhaseSeconds  `json:"phaseSeconds"`
}

// PhaseSeconds splits ElapsedSeconds five ways.  Sample includes the fleet
// probe; Sort is the slowest shard's commit-to-done wait (what the paper's
// model charges), Upload the rest of the concurrent upload-and-sort phase.
type PhaseSeconds struct {
	Sample    float64 `json:"sample"`
	Partition float64 `json:"partition"`
	Upload    float64 `json:"upload"`
	Sort      float64 `json:"sort"`
	Download  float64 `json:"download"`
}

// Sort runs one distributed key sort: sample, range-partition to the
// workers, per-node sorts, and a positional download of the sorted shards.
// The output is exactly the sorted input — bit-identical to a
// single-machine sort — for any worker count.
func (c *Coordinator) Sort(ctx context.Context, keys []int64) ([]int64, *Report, error) {
	out, _, rep, err := c.run(ctx, keys, nil)
	return out, rep, err
}

// SortRecords is Sort for full records: payloads ride with their keys, and
// the output (keys and payload order among equal keys) is bit-identical to
// the single-machine stable records sort.
func (c *Coordinator) SortRecords(ctx context.Context, keys []int64, payloads [][]byte) ([]int64, [][]byte, *Report, error) {
	if len(payloads) != len(keys) {
		return nil, nil, nil, fmt.Errorf("dist: %d payloads for %d keys", len(payloads), len(keys))
	}
	if payloads == nil {
		payloads = [][]byte{}
	}
	return c.run(ctx, keys, payloads)
}

func (c *Coordinator) run(ctx context.Context, keys []int64, payloads [][]byte) ([]int64, [][]byte, *Report, error) {
	start := time.Now()
	n := len(keys)
	w := len(c.clients)
	rep := &Report{N: n, Workers: w}
	if n == 0 {
		if payloads != nil {
			return []int64{}, [][]byte{}, rep, nil
		}
		return []int64{}, nil, rep, nil
	}

	// Probe the fleet before moving any data: a worker that is down now
	// fails the job in one round-trip instead of after uploading shards.
	if err := c.probe(ctx); err != nil {
		return nil, nil, nil, err
	}

	// Choose splitters from a deterministic sample and scatter every
	// record into its shard's buffer.
	mark, ph := start, &rep.PhaseSeconds
	lap := func(phase *float64) {
		now := time.Now()
		*phase, mark = now.Sub(mark).Seconds(), now
	}
	rep.Splitters, rep.SampleSize = c.splitters(keys, w)
	lap(&ph.Sample)
	part, partPay, starts := partition(keys, payloads, rep.Splitters)
	lap(&ph.Partition)

	// Upload and sort every non-empty shard concurrently; empty shards
	// (possible when the sample had few distinct keys) skip the worker
	// round-trip entirely and own an empty range of the output.
	jobSeq := c.seq.Add(1)
	statuses := make([]wire.JobStatus, w) // ID != 0: the shard's job exists
	sorts := make([]time.Duration, w)
	err := c.fan(ctx, w, false, func(ctx context.Context, i int) (err error) {
		lo, hi := starts[i], starts[i+1]
		if lo == hi {
			return nil
		}
		if sorts[i], err = c.runShard(ctx, i, jobSeq, part[lo:hi], window(partPay, lo, hi), &statuses[i]); err != nil {
			err = fmt.Errorf("dist: shard %d on %s: %w", i, c.cfg.Workers[i], err)
		}
		return err
	})
	if err != nil {
		// One shard failed: cancel every job the others started so no
		// worker keeps sorting for a dead distributed job, then report
		// the first failure.
		c.cancelAll(statuses)
		if ctx.Err() != nil {
			err = fmt.Errorf("dist: %w", ctx.Err())
		}
		return nil, nil, nil, err
	}
	ph.Sort = slices.Max(sorts).Seconds()
	lap(&ph.Upload)
	ph.Upload -= ph.Sort

	outKeys, outPayloads, err := c.download(ctx, statuses, starts, payloads != nil)
	if err != nil {
		c.cancelAll(statuses)
		return nil, nil, nil, err
	}

	for i, st := range statuses {
		if st.ID == 0 {
			continue
		}
		sr := ShardReport{Worker: c.cfg.Workers[i], JobID: st.ID, N: st.N, Algorithm: st.Algorithm}
		if st.Report != nil {
			sr.Passes = st.Report.Passes
			sr.IO = st.Report.IO
			rep.Passes += st.Report.Passes * float64(st.N)
			rep.MaxPasses = max(rep.MaxPasses, st.Report.Passes)
			rep.IO = rep.IO.Add(st.Report.IO)
		}
		rep.Shards = append(rep.Shards, sr)
	}
	rep.Passes /= float64(n)
	lap(&ph.Download)
	rep.ElapsedSeconds = mark.Sub(start).Seconds()
	return outKeys, outPayloads, rep, nil
}

// partition scatters keys (and their payloads) into shard order: shard s
// is part[starts[s]:starts[s+1]], sized by a counting pass, in input order
// within the shard; ties never straddle shards (records.RangeShard).
func partition(keys []int64, payloads [][]byte, splitters []int64) (part []int64, partPay [][]byte, starts []int) {
	starts = make([]int, len(splitters)+2)
	for _, k := range keys {
		starts[records.RangeShard(k, splitters)+1]++
	}
	for s := 1; s < len(starts); s++ {
		starts[s] += starts[s-1]
	}
	part, partPay, next := make([]int64, len(keys)), make([][]byte, len(payloads)), slices.Clone(starts)
	for i, k := range keys {
		s := records.RangeShard(k, splitters)
		part[next[s]] = k
		if payloads != nil {
			partPay[next[s]] = payloads[i]
		}
		next[s]++
	}
	return part, partPay, starts
}

// window is payloads[lo:hi], or nil on a keys-only job (no payloads at all).
func window(payloads [][]byte, lo, hi int) [][]byte {
	if len(payloads) == 0 {
		return nil
	}
	return payloads[lo:hi]
}

// probe health-checks every worker concurrently.
func (c *Coordinator) probe(ctx context.Context) error {
	return c.fan(ctx, len(c.clients), false, func(ctx context.Context, i int) error {
		h, err := c.clients[i].health(ctx)
		if err == nil && h.Status != "ok" {
			err = fmt.Errorf("reports status %q", h.Status)
		}
		if err != nil {
			return fmt.Errorf("dist: worker %s: %w", c.cfg.Workers[i], err)
		}
		return nil
	})
}

// splitters picks w−1 range splitters from a deterministic stride sample.
// The sample size follows the paper's Θ(k·α·log n) oversampling bound
// (plan.SplitterSample), so shard sizes are balanced w.h.p. for random
// inputs; determinism (same input ⇒ same splitters ⇒ same shard
// assignment) is what lets a re-run reproduce a job exactly.
func (c *Coordinator) splitters(keys []int64, w int) ([]int64, int) {
	if w <= 1 {
		return nil, 0
	}
	n := len(keys)
	s := plan.SplitterSample(n, w, splitterAlpha)
	sample := make([]int64, s)
	for i := range sample {
		sample[i] = keys[i*n/s]
	}
	slices.Sort(sample)
	splitters := make([]int64, w-1)
	for i := range splitters {
		splitters[i] = sample[(i+1)*s/w]
	}
	return splitters, s
}

// runShard ships one shard to its worker through the staged-upload
// protocol — bounded-concurrency page uploads, each independently retried
// — commits it into a job, and polls that job to completion.  *st is the
// job's status from the moment it exists, so a failure anywhere can cancel
// it; the duration is the commit-to-done wait, this shard's sort.
func (c *Coordinator) runShard(ctx context.Context, worker int, jobSeq int64, keys []int64, payloads [][]byte, st *wire.JobStatus) (time.Duration, error) {
	cl := c.clients[worker]
	uploadID, err := c.createUpload(ctx, cl, jobSeq, worker)
	if err != nil {
		return 0, err
	}
	pageKeys := c.cfg.PageKeys
	err = c.fan(ctx, (len(keys)+pageKeys-1)/pageKeys, true, func(ctx context.Context, seq int) error {
		lo, hi := seq*pageKeys, min((seq+1)*pageKeys, len(keys))
		return cl.uploadPage(ctx, uploadID, seq, wire.Page{N: len(keys), Offset: lo, Keys: keys[lo:hi], Payloads: window(payloads, lo, hi)})
	})
	if err != nil {
		c.abandonUpload(cl, uploadID)
		return 0, fmt.Errorf("upload %s: %w", uploadID, err)
	}

	committed := time.Now()
	*st, err = cl.uploadCommit(ctx, uploadID, wire.JobSpec{
		Alg:            c.cfg.Alg,
		BlockLatencyUS: c.cfg.BlockLatencyUS,
		KeepKeys:       true,
		Label:          fmt.Sprintf("%s/shard%d", c.cfg.Label, worker),
	})
	if err != nil {
		c.abandonUpload(cl, uploadID)
		return 0, fmt.Errorf("commit %s: %w", uploadID, err)
	}
	done, err := c.await(ctx, cl, st.ID)
	if err == nil {
		*st = done // a failed poll must not erase the id cancelAll needs
	}
	return time.Since(committed), err
}

// fan runs fn(i) for every i in [0, n) concurrently (bounded: under the
// Concurrency semaphore); the first error cancels the rest and is returned.
func (c *Coordinator) fan(ctx context.Context, n int, bounded bool, fn func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errCh := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if bounded {
				select {
				case c.sem <- struct{}{}:
					defer func() { <-c.sem }()
				case <-ctx.Done():
					return
				}
			}
			if err := fn(ctx, i); err != nil {
				errCh <- err
				cancel()
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// createUpload registers a fresh staged upload.  The id is derived from
// the coordinator's job sequence; if a previous coordinator against the
// same worker already committed that id, the 409 re-salts rather than
// failing the job.
func (c *Coordinator) createUpload(ctx context.Context, cl *client, jobSeq int64, worker int) (string, error) {
	for salt := 0; ; salt++ {
		id := fmt.Sprintf("%s-j%d-w%d", c.cfg.Label, jobSeq, worker)
		if salt > 0 {
			id = fmt.Sprintf("%s-r%d", id, salt)
		}
		err := cl.uploadCreate(ctx, id)
		if err == nil {
			return id, nil
		}
		var se *statusError
		if errors.As(err, &se) && se.code == http.StatusConflict && salt < 16 {
			continue
		}
		return "", err
	}
}

// abandonUpload frees a staged upload after a failure, best-effort on a
// fresh context (the job context is usually already canceled).
func (c *Coordinator) abandonUpload(cl *client, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	cl.uploadAbort(ctx, id) //nolint:errcheck // the TTL sweep is the backstop
}

// await polls one shard job to a terminal state, every sixteenth of the
// time waited so far clamped to [2 ms, 250 ms]: a job is noticed done
// within ~6% of its own length and a long one is not hammered.
func (c *Coordinator) await(ctx context.Context, cl *client, jobID int) (wire.JobStatus, error) {
	start := time.Now()
	for {
		st, err := cl.status(ctx, jobID)
		if err != nil {
			return st, err
		}
		switch st.State {
		case wire.JobDone:
			return st, nil
		case wire.JobFailed:
			return st, fmt.Errorf("job %d failed: %s", jobID, st.Error)
		case wire.JobCanceled:
			return st, fmt.Errorf("job %d canceled: %s", jobID, st.Error)
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(min(max(time.Since(start)/16, 2*time.Millisecond), 250*time.Millisecond)):
		}
	}
}

// cancelAll fans a cancel out to every job the run started, on a fresh
// short-deadline context so cancellation still lands when the job context
// itself is what died.  Best-effort and concurrent: a worker that is gone
// cannot be canceled, and that is fine — its scheduler dies with it.
func (c *Coordinator) cancelAll(statuses []wire.JobStatus) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c.fan(ctx, len(statuses), false, func(ctx context.Context, i int) error { //nolint:errcheck // best-effort
		if statuses[i].ID != 0 {
			c.clients[i].cancel(ctx, statuses[i].ID) //nolint:errcheck // best-effort
		}
		return nil
	})
}

// download is phase 4 (see doc.go): every page of every shard is decoded
// where it belongs in the output, out[starts[i]:starts[i+1]] for shard i,
// under the Concurrency bound; then the shard boundaries are asserted.
func (c *Coordinator) download(ctx context.Context, statuses []wire.JobStatus, starts []int, withPayloads bool) ([]int64, [][]byte, error) {
	total, pageKeys := starts[len(starts)-1], c.cfg.PageKeys
	out, endpoint := make([]int64, total), "keys"
	var outPay [][]byte
	if withPayloads {
		outPay, endpoint = make([][]byte, total), "records"
	}
	err := c.fan(ctx, len(statuses), false, func(ctx context.Context, i int) error {
		base, n := starts[i], starts[i+1]-starts[i]
		err := c.fan(ctx, (n+pageKeys-1)/pageKeys, true, func(ctx context.Context, seq int) error {
			off := seq * pageKeys
			dst := out[base+off : base+min(off+pageKeys, n)]
			pg, err := c.clients[i].page(ctx, statuses[i].ID, endpoint, off, dst)
			if err == nil && (pg.N != n || pg.Offset != off || len(pg.Keys) != len(dst) || withPayloads && len(pg.Payloads) != len(dst)) {
				err = fmt.Errorf("asked for [%d, +%d) of %d, answered [%d, +%d) of %d with %d payloads",
					off, len(dst), n, pg.Offset, len(pg.Keys), pg.N, len(pg.Payloads))
			}
			if err != nil {
				return fmt.Errorf("result page: %w", err)
			}
			if &pg.Keys[0] != &dst[0] { // a JSON answer decodes into its own slice
				copy(dst, pg.Keys)
			}
			if withPayloads {
				copy(outPay[base+off:], pg.Payloads)
			}
			return nil
		})
		if err != nil {
			err = fmt.Errorf("dist: shard %d on %s: %w", i, c.cfg.Workers[i], err)
		}
		return err
	})
	for i := 1; err == nil && i < len(statuses); i++ {
		if b := starts[i]; 0 < b && b < starts[i+1] && out[b-1] >= out[b] {
			err = fmt.Errorf("dist: shard %d on %s overlaps its neighbour: first key %d, previous shard ends at %d",
				i, c.cfg.Workers[i], out[b], out[b-1])
		}
	}
	return out, outPay, err
}

// WorkerURLs exposes the configured fleet (for CLIs printing reports).
func (c *Coordinator) WorkerURLs() []string {
	return slices.Clone(c.cfg.Workers)
}
