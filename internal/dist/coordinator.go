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
	"repro/internal/memsort"
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
	// Concurrency bounds in-flight page uploads across all shards; <= 0
	// selects 4.
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
	sem     chan struct{} // bounds in-flight page uploads
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
}

// Sort runs one distributed key sort: sample, range-partition to the
// workers, per-node sorts, and a streaming merge of the sorted shards.
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

// shardJob tracks one submitted shard for the cancellation fan-out.
type shardJob struct {
	worker int
	jobID  int
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

	// Choose splitters from a deterministic sample, partition, and drop
	// the shard index assignment of every record.
	splitters, sample := c.splitters(keys, w)
	rep.SampleSize = sample
	rep.Splitters = splitters
	shards := records.RangePartition(keys, splitters)

	// Upload and sort every non-empty shard concurrently; empty shards
	// (possible when the sample had few distinct keys) skip the worker
	// round-trip entirely and merge as exhausted lanes.
	jobSeq := c.seq.Add(1)
	statuses := make([]wire.JobStatus, w)
	var (
		mu   sync.Mutex
		jobs []shardJob
	)
	track := func(worker, jobID int) {
		mu.Lock()
		jobs = append(jobs, shardJob{worker: worker, jobID: jobID})
		mu.Unlock()
	}
	gctx, gcancel := context.WithCancel(ctx)
	defer gcancel()
	errCh := make(chan error, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		if len(shards[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.runShard(gctx, i, jobSeq, shards[i], keys, payloads, track)
			if err != nil {
				errCh <- fmt.Errorf("dist: shard %d on %s: %w", i, c.cfg.Workers[i], err)
				gcancel()
				return
			}
			statuses[i] = st
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		// One shard failed: cancel every job the others started so no
		// worker keeps sorting for a dead distributed job, then report
		// the first failure.
		c.cancelAll(jobs)
		if ctx.Err() != nil {
			err = fmt.Errorf("dist: %w", ctx.Err())
		}
		return nil, nil, nil, err
	default:
	}

	// Merge the sorted shards: a loser-tree streaming merge over the
	// workers' paginated output, lanes in splitter order so the
	// concatenation is globally sorted with single-machine tie-breaking.
	outKeys, outPayloads, err := c.merge(ctx, statuses, shards, payloads != nil)
	if err != nil {
		c.cancelAll(jobs)
		return nil, nil, nil, err
	}
	if len(outKeys) != n {
		return nil, nil, nil, fmt.Errorf("dist: merged %d keys, sharded %d", len(outKeys), n)
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
	rep.ElapsedSeconds = time.Since(start).Seconds()
	return outKeys, outPayloads, rep, nil
}

// probe health-checks every worker concurrently.
func (c *Coordinator) probe(ctx context.Context) error {
	errCh := make(chan error, len(c.clients))
	var wg sync.WaitGroup
	for i, cl := range c.clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			h, err := cl.health(ctx)
			if err != nil {
				errCh <- fmt.Errorf("dist: worker %s: %w", c.cfg.Workers[i], err)
				return
			}
			if h.Status != "ok" {
				errCh <- fmt.Errorf("dist: worker %s reports status %q", c.cfg.Workers[i], h.Status)
			}
		}(i, cl)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
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
// — commits it into a job, and polls that job to completion.  track is
// called as soon as the job exists so a failure elsewhere can cancel it.
func (c *Coordinator) runShard(ctx context.Context, worker int, jobSeq int64, shard []int, keys []int64, payloads [][]byte, track func(worker, jobID int)) (wire.JobStatus, error) {
	cl := c.clients[worker]
	uploadID, err := c.createUpload(ctx, cl, jobSeq, worker)
	if err != nil {
		return wire.JobStatus{}, err
	}

	// Gather the shard's keys (and payloads) in partition order and cut
	// them into pages.
	shardKeys := make([]int64, len(shard))
	for i, idx := range shard {
		shardKeys[i] = keys[idx]
	}
	var shardPayloads [][]byte
	if payloads != nil {
		shardPayloads = make([][]byte, len(shard))
		for i, idx := range shard {
			shardPayloads[i] = payloads[idx]
		}
	}
	pageKeys := c.cfg.PageKeys
	pages := (len(shard) + pageKeys - 1) / pageKeys

	uctx, ucancel := context.WithCancel(ctx)
	defer ucancel()
	errCh := make(chan error, pages)
	var wg sync.WaitGroup
	for seq := 0; seq < pages; seq++ {
		wg.Add(1)
		go func(seq int) {
			defer wg.Done()
			select {
			case c.sem <- struct{}{}:
				defer func() { <-c.sem }()
			case <-uctx.Done():
				return
			}
			lo, hi := seq*pageKeys, min((seq+1)*pageKeys, len(shardKeys))
			var pp [][]byte
			if shardPayloads != nil {
				pp = shardPayloads[lo:hi]
			}
			if err := cl.uploadPage(uctx, uploadID, seq, shardKeys[lo:hi], pp); err != nil {
				errCh <- err
				ucancel()
			}
		}(seq)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		c.abandonUpload(cl, uploadID)
		return wire.JobStatus{}, fmt.Errorf("upload %s: %w", uploadID, err)
	default:
	}

	st, err := cl.uploadCommit(ctx, uploadID, wire.JobSpec{
		Alg:            c.cfg.Alg,
		BlockLatencyUS: c.cfg.BlockLatencyUS,
		KeepKeys:       true,
		Label:          fmt.Sprintf("%s/shard%d", c.cfg.Label, worker),
	})
	if err != nil {
		c.abandonUpload(cl, uploadID)
		return wire.JobStatus{}, fmt.Errorf("commit %s: %w", uploadID, err)
	}
	track(worker, st.ID)
	return c.await(ctx, cl, st.ID)
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

// await polls one shard job to a terminal state.
func (c *Coordinator) await(ctx context.Context, cl *client, jobID int) (wire.JobStatus, error) {
	delay := 2 * time.Millisecond
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
		case <-time.After(delay):
		}
		if delay < 50*time.Millisecond {
			delay *= 2
		}
	}
}

// cancelAll fans a cancel out to every job the run started, on a fresh
// short-deadline context so cancellation still lands when the job context
// itself is what died.  Best-effort and concurrent: a worker that is gone
// cannot be canceled, and that is fine — its scheduler dies with it.
func (c *Coordinator) cancelAll(jobs []shardJob) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j shardJob) {
			defer wg.Done()
			c.clients[j.worker].cancel(ctx, j.jobID) //nolint:errcheck // best-effort fan-out
		}(j)
	}
	wg.Wait()
}

// mergeLane is one worker's paginated sorted output as a stream.
type mergeLane struct {
	cl      *client
	jobID   int
	total   int // -1 until the first page reveals n
	fetched int
	curKeys []int64
	curPay  [][]byte
	eoff    int // emit offset into the current chunk
}

// merge streams the sorted shards back and interleaves them with the
// loser-tree merge.  Lanes are indexed by shard (= splitter range), so the
// merge's lane-order tie-break reproduces exactly the single-machine
// stable order: equal keys never straddle shards, and within a shard the
// worker already emitted them in stable order.
func (c *Coordinator) merge(ctx context.Context, statuses []wire.JobStatus, shards [][]int, withPayloads bool) ([]int64, [][]byte, error) {
	w := len(c.clients)
	lanes := make([]*mergeLane, w)
	total := 0
	for i := range lanes {
		lanes[i] = &mergeLane{total: -1}
		if statuses[i].ID != 0 {
			lanes[i].cl = c.clients[i]
			lanes[i].jobID = statuses[i].ID
		}
		total += len(shards[i])
	}
	outKeys := make([]int64, 0, total)
	var outPay [][]byte
	if withPayloads {
		outPay = make([][]byte, 0, total)
	}

	refill := func(lane int) ([]int64, error) {
		l := lanes[lane]
		if l.cl == nil {
			return nil, nil // empty shard: exhausted from the start
		}
		if l.total >= 0 && l.fetched >= l.total {
			return nil, nil
		}
		var (
			p   wire.Page
			err error
		)
		if withPayloads {
			p, err = l.cl.recordsPage(ctx, l.jobID, l.fetched, c.cfg.PageKeys)
		} else {
			p, err = l.cl.keysPage(ctx, l.jobID, l.fetched, c.cfg.PageKeys)
		}
		if err != nil {
			return nil, err
		}
		l.total = p.N
		l.fetched += len(p.Keys)
		if len(p.Keys) == 0 {
			return nil, nil
		}
		l.curKeys = p.Keys
		l.curPay = p.Payloads
		l.eoff = 0
		return p.Keys, nil
	}
	emit := func(lane, n int) error {
		l := lanes[lane]
		outKeys = append(outKeys, l.curKeys[l.eoff:l.eoff+n]...)
		if withPayloads {
			outPay = append(outPay, l.curPay[l.eoff:l.eoff+n]...)
		}
		l.eoff += n
		return nil
	}
	if err := memsort.StreamMerge(w, refill, emit); err != nil {
		return nil, nil, fmt.Errorf("dist: merge: %w", err)
	}
	return outKeys, outPay, nil
}

// WorkerURLs exposes the configured fleet (for CLIs printing reports).
func (c *Coordinator) WorkerURLs() []string {
	return slices.Clone(c.cfg.Workers)
}
