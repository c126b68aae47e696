package pdmdapi

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/wire"
)

// Staged uploads let a coordinator ship one shard as many bounded pages
// instead of one giant submit body.  The whole protocol is idempotent so a
// client may retry any request after a timeout without double-counting:
// creates are keyed by a client-chosen id, pages by a client-chosen
// sequence number, and commit parks a tombstone remembering the job it
// created.  Staged bytes are accounted against a global cap (the scheduler
// only budgets bytes it has admitted; staging happens before admission, so
// the cap is the handler's own responsibility), and uploads a dead client
// never finishes expire after a TTL.

type upload struct {
	pages      map[int]uploadPage
	bytes      int64
	touched    time.Time
	committing bool // a commit is between lock releases; duplicates are 409s
	committed  bool
	jobID      int
}

type uploadPage struct {
	keys     []int64
	payloads [][]byte
}

type uploadStore struct {
	mu      sync.Mutex
	maxByte int64
	ttl     time.Duration
	used    int64
	ups     map[string]*upload
	now     func() time.Time // swapped by the TTL tests
}

func newUploadStore(maxBytes int64, ttl time.Duration) *uploadStore {
	return &uploadStore{maxByte: maxBytes, ttl: ttl, ups: make(map[string]*upload), now: time.Now}
}

// sweep drops expired uploads.  Called under mu on every operation; the
// map holds at most a handful of in-flight shards, so a linear walk is
// cheaper than a timer per upload.
func (u *uploadStore) sweep() {
	now := u.now()
	for id, up := range u.ups {
		if now.Sub(up.touched) > u.ttl {
			u.used -= up.bytes
			delete(u.ups, id)
		}
	}
}

func (u *uploadStore) count() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.sweep()
	return len(u.ups)
}

func (u *uploadStore) bytes() int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.sweep()
	return u.used
}

func pageSize(keys []int64, payloads [][]byte) int64 {
	n := int64(len(keys)) * 8
	for _, p := range payloads {
		n += int64(len(p))
	}
	return n
}

// uploadCreateRequest is the POST /uploads body.
type uploadCreateRequest struct {
	// ID is the client-chosen upload id; retrying the same create is a
	// no-op, which is what makes the retry safe.
	ID string `json:"id"`
}

func (s *server) uploadCreate(w http.ResponseWriter, r *http.Request) {
	var req uploadCreateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.ID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("upload id must be non-empty"))
		return
	}
	u := s.ups
	u.mu.Lock()
	defer u.mu.Unlock()
	u.sweep()
	up, exists := u.ups[req.ID]
	if !exists {
		u.ups[req.ID] = &upload{pages: make(map[int]uploadPage), touched: u.now()}
	} else if up.committed {
		writeError(w, http.StatusConflict, fmt.Errorf("upload %q already committed", req.ID))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": req.ID})
}

// uploadPage stages the POST /uploads/{id}/pages?seq=K body: one window of
// the shard, a wire.Page in either encoding and checked the same in both.
// Its n and offset describe the sender's shard; the worker ignores them.
func (s *server) uploadPage(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	seq, err := strconv.Atoi(r.URL.Query().Get("seq"))
	if err != nil || seq < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad page seq %q", r.URL.Query().Get("seq")))
		return
	}
	var req wire.Page
	if r.Header.Get("Content-Type") != wire.PageContentType {
		if !s.decodeBody(w, r, &req) {
			return
		}
	} else if req, err = s.readPage(r); !bodyOK(w, err) {
		return
	}
	if len(req.Keys) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("page %d: no keys", seq))
		return
	}
	if req.Payloads != nil && len(req.Payloads) != len(req.Keys) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("page %d: %d payloads for %d keys", seq, len(req.Payloads), len(req.Keys)))
		return
	}
	u := s.ups
	u.mu.Lock()
	defer u.mu.Unlock()
	u.sweep()
	up, ok := u.ups[id]
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown upload %q", id))
		return
	}
	if up.committed {
		writeError(w, http.StatusConflict, fmt.Errorf("upload %q already committed", id))
		return
	}
	up.touched = u.now()
	if _, dup := up.pages[seq]; dup {
		// A retried page: the first copy won, the retry is a no-op.
		writeJSON(w, http.StatusOK, map[string]any{"seq": seq, "staged": true})
		return
	}
	sz := pageSize(req.Keys, req.Payloads)
	if u.used+sz > u.maxByte {
		writeError(w, http.StatusInsufficientStorage,
			fmt.Errorf("staging full: %d bytes held, page needs %d of %d", u.used, sz, u.maxByte))
		return
	}
	u.used += sz
	up.bytes += sz
	up.pages[seq] = uploadPage{keys: req.Keys, payloads: req.Payloads}
	writeJSON(w, http.StatusOK, map[string]any{"seq": seq, "staged": true})
}

// uploadCommit assembles the staged pages in sequence order into one job
// submission.  The body is a SubmitRequest minus the inline input (keys
// and payloads come from the pages).  Re-committing is idempotent: the
// upload's tombstone remembers the job it created, and the answer is that
// job's current status.
func (s *server) uploadCommit(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req SubmitRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Keys) > 0 || len(req.Payloads) > 0 || req.Workload != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("commit body must not carry keys, payloads, or a workload"))
		return
	}

	u := s.ups
	u.mu.Lock()
	u.sweep()
	up, ok := u.ups[id]
	if !ok {
		u.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown upload %q", id))
		return
	}
	if up.committed {
		jobID := up.jobID
		up.touched = u.now()
		u.mu.Unlock()
		st, ok := s.sch.Status(jobID)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("upload %q committed to evicted job %d", id, jobID))
			return
		}
		writeJSON(w, http.StatusOK, st)
		return
	}
	if up.committing {
		u.mu.Unlock()
		writeError(w, http.StatusConflict, fmt.Errorf("upload %q: commit already in flight", id))
		return
	}
	keys, payloads, err := assemble(up)
	if err != nil {
		u.mu.Unlock()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	up.committing = true
	u.mu.Unlock()

	// Submit outside the store lock: admission may block on the queue.
	req.Keys = keys
	req.Payloads = payloads
	jobID, ok := s.submitSpec(w, req)

	u.mu.Lock()
	if up2, still := u.ups[id]; still {
		up2.committing = false
		if ok {
			// Park the tombstone and free the staged pages — the
			// scheduler has copied what it admitted into its own
			// budgeted arena.  On failure the pages stay so the client
			// can fix the spec and retry the commit.
			u.used -= up2.bytes
			up2.bytes = 0
			up2.pages = nil
			up2.committed = true
			up2.jobID = jobID
		}
		up2.touched = u.now()
	}
	u.mu.Unlock()
}

// assemble concatenates an upload's pages in sequence order.  Sequence
// numbers must be the contiguous range 0..len-1 — a gap means a page the
// client believes it sent never arrived, and committing around it would
// silently sort a hole into the data.
func assemble(up *upload) ([]int64, [][]byte, error) {
	if len(up.pages) == 0 {
		return nil, nil, fmt.Errorf("upload has no pages")
	}
	seqs := make([]int, 0, len(up.pages))
	for seq := range up.pages {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	if seqs[len(seqs)-1] != len(seqs)-1 {
		return nil, nil, fmt.Errorf("pages not contiguous: have %d pages, highest seq %d", len(seqs), seqs[len(seqs)-1])
	}
	total := 0
	for _, pg := range up.pages {
		total += len(pg.keys)
	}
	keys := make([]int64, 0, total)
	var payloads [][]byte
	if up.pages[0].payloads != nil {
		payloads = make([][]byte, 0, total)
	}
	for _, seq := range seqs {
		pg := up.pages[seq]
		if (pg.payloads != nil) != (payloads != nil) {
			return nil, nil, fmt.Errorf("page %d mixes keys-only and records pages", seq)
		}
		keys = append(keys, pg.keys...)
		payloads = append(payloads, pg.payloads...)
	}
	return keys, payloads, nil
}

func (s *server) uploadAbort(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	u := s.ups
	u.mu.Lock()
	defer u.mu.Unlock()
	u.sweep()
	up, ok := u.ups[id]
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown upload %q", id))
		return
	}
	u.used -= up.bytes
	delete(u.ups, id)
	w.WriteHeader(http.StatusNoContent)
}
