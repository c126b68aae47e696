package pdmdapi

import (
	"fmt"
	"math/bits"
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
//
// A committed, aborted or expired upload gives its pages' key buffers back
// to the store, and the next binary pages that fit one decode into it, so
// a warm worker allocates no staging.  JSON request bodies borrow from the
// same buffers, viewed as bytes (decodeBody), and give theirs back once
// decoded, so one free list serves staging and bodies.  The store keeps at
// most MaxStagedBytes of released buffers; a page refused after its decode
// leaves its buffer to the collector.  Reuse is safe because commit copies
// the pages into a slice the job owns (assemble) before they are released,
// and a body's decode copies everything out of it.

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
	mu       sync.Mutex
	maxByte  int64
	ttl      time.Duration
	used     int64
	ups      map[string]*upload
	free     [64][][]int64    // released key buffers, by capacity's bit length − 1
	freeByte int64            // their bytes, at most maxByte
	now      func() time.Time // swapped by the TTL tests
}

func newUploadStore(maxBytes int64, ttl time.Duration) *uploadStore {
	return &uploadStore{maxByte: maxBytes, ttl: ttl, ups: make(map[string]*upload), now: time.Now}
}

// takeKeys hands out a released buffer of at least n keys, at full
// capacity, or nil.  It looks only among buffers of n's power-of-two
// class, so it never hands out twice the capacity asked for.  A nil store
// (a bare server) lends nothing and keeps nothing.
func (u *uploadStore) takeKeys(n int) []int64 {
	if u == nil || n <= 0 {
		return nil
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	class := &u.free[bits.Len(uint(n))-1]
	for i := len(*class) - 1; i >= 0; i-- {
		if b := (*class)[i]; cap(b) >= n {
			last := len(*class) - 1
			(*class)[i], (*class)[last] = (*class)[last], nil
			*class = (*class)[:last]
			u.freeByte -= int64(cap(b)) * 8
			return b
		}
	}
	return nil
}

// giveKeys keeps b, a buffer takeKeys lent or one like it, for a later
// takeKeys while the store has room for it.
func (u *uploadStore) giveKeys(b []int64) {
	if u == nil {
		return
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	u.putKeys(b)
}

// putKeys is giveKeys, called under mu.
func (u *uploadStore) putKeys(b []int64) {
	c := cap(b)
	if c == 0 || u.freeByte+int64(c)*8 > u.maxByte {
		return
	}
	class := &u.free[bits.Len(uint(c))-1]
	*class = append(*class, b[:c])
	u.freeByte += int64(c) * 8
}

// release drops up's pages: their key buffers go back to the store and
// their bytes off the staging count.  Called under mu.
func (u *uploadStore) release(up *upload) {
	for _, pg := range up.pages {
		u.putKeys(pg.keys)
	}
	u.used -= up.bytes
	up.bytes = 0
	up.pages = nil
}

// sweep drops expired uploads.  Called under mu on every operation; the
// map holds at most a handful of in-flight shards, so a linear walk is
// cheaper than a timer per upload.
func (u *uploadStore) sweep() {
	now := u.now()
	for id, up := range u.ups {
		if now.Sub(up.touched) > u.ttl {
			u.release(up)
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
			// Park the tombstone and release the staged pages — the
			// job owns assemble's copy of them.  On failure the pages
			// stay so the client can fix the spec and retry the commit.
			u.release(up2)
			up2.committed = true
			up2.jobID = jobID
		}
		up2.touched = u.now()
	}
	u.mu.Unlock()
}

// assemble concatenates an upload's pages in sequence order into a fresh
// slice, the job's own: the pages' buffers are reused once released, and
// a KeepKeys job keeps this slice as its result.  Sequence
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
	u.release(up)
	delete(u.ups, id)
	w.WriteHeader(http.StatusNoContent)
}
