package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// client is the coordinator's view of one pdmd worker: a thin typed layer
// over the worker's HTTP API with the hygiene every call needs — a hard
// per-request timeout, bounded retries with backoff on transient failures,
// and a response body that is read to completion and closed on every path
// so the shared connection pool never leaks.
type client struct {
	base    string
	http    *http.Client
	timeout time.Duration
	retries int
	binary  atomic.Bool // the last probe saw Accept-Post: application/x-pdm-page
}

// statusError is a non-2xx worker answer: terminal for the request (the
// worker understood us and said no), as opposed to the transport errors
// and gateway-style codes do retries.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("worker answered %d: %s", e.code, e.msg)
}

// retryable reports whether another attempt could change the answer:
// transport errors (connection refused, reset, timeout) and the transient
// status codes.  A 4xx is the coordinator's own bug and never retried.
func retryable(code int) bool {
	switch code {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout,
		http.StatusInsufficientStorage, http.StatusTooManyRequests:
		return true
	}
	return false
}

// do runs one JSON request: in (if any) is the body, out (if any) takes
// the answer.
func (c *client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("dist: marshal %s %s: %w", method, path, err)
		}
	}
	return c.send(ctx, method, path, "application/json", "", body, func(resp *http.Response) error {
		return recvJSON(resp, out)
	})
}

// recvJSON reads a JSON answer into out (nil: drop it).
func recvJSON(resp *http.Response, out any) error {
	raw, err := readBody(resp)
	if err != nil || out == nil || len(raw) == 0 {
		return err
	}
	return json.Unmarshal(raw, out)
}

// send runs one request with the per-call timeout and retry policy.  The
// body is bytes, so every retry sends a fresh reader; recv (if any)
// consumes a 2xx answer, and an answer it cannot read or decode is retried
// like a transport failure — every request here is idempotent.
func (c *client) send(ctx context.Context, method, path, ctype, accept string, body []byte, recv func(*http.Response) error) error {
	backoff := 20 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			if backoff < time.Second {
				backoff *= 2
			}
		}
		code, msg, err := c.once(ctx, method, path, ctype, accept, body, recv)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = fmt.Errorf("dist: %s %s%s: %w", method, c.base, path, err)
			continue
		}
		if code >= 200 && code < 300 {
			return nil
		}
		lastErr = fmt.Errorf("dist: %s %s%s: %w", method, c.base, path, &statusError{code: code, msg: msg})
		if !retryable(code) {
			return lastErr
		}
	}
	return lastErr
}

// once is a single attempt: its own deadline, body drained and closed
// whatever happens.
func (c *client) once(ctx context.Context, method, path, ctype, accept string, body []byte, recv func(*http.Response) error) (int, string, error) {
	rctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, c.base+path, rd)
	if err != nil {
		return 0, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", ctype)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	defer io.Copy(io.Discard, resp.Body) //nolint:errcheck // keeps the connection reusable
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if recv != nil {
			err = recv(resp)
		}
		return resp.StatusCode, "", err
	}
	raw, err := readBody(resp)
	return resp.StatusCode, errorMessage(raw), err
}

// readBody reads an answer in one allocation when its length was declared.
func readBody(resp *http.Response) ([]byte, error) {
	if resp.ContentLength < 0 {
		return io.ReadAll(resp.Body)
	}
	raw := make([]byte, resp.ContentLength)
	_, err := io.ReadFull(resp.Body, raw)
	return raw, err
}

func errorMessage(raw []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	if len(raw) > 200 {
		raw = raw[:200]
	}
	return string(raw)
}

// health probes the worker and notes whether it offers binary upload pages.
func (c *client) health(ctx context.Context) (wire.Health, error) {
	var h wire.Health
	err := c.send(ctx, http.MethodGet, "/healthz", "", "", nil, func(resp *http.Response) error {
		c.binary.Store(strings.Contains(resp.Header.Get("Accept-Post"), wire.PageContentType))
		return recvJSON(resp, &h)
	})
	return h, err
}

func (c *client) uploadCreate(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/uploads", map[string]string{"id": id}, nil)
}

func (c *client) uploadPage(ctx context.Context, id string, seq int, pg wire.Page) error {
	path := fmt.Sprintf("/uploads/%s/pages?seq=%d", id, seq)
	if c.binary.Load() {
		body := bytes.NewBuffer(make([]byte, 0, pg.BinaryLen()))
		pg.WriteBinary(body) //nolint:errcheck // a bytes.Buffer does not fail
		return c.send(ctx, http.MethodPost, path, wire.PageContentType, "", body.Bytes(), nil)
	}
	return c.do(ctx, http.MethodPost, path, struct {
		Keys     []int64  `json:"keys"`
		Payloads [][]byte `json:"payloads,omitempty"`
	}{pg.Keys, pg.Payloads}, nil)
}

func (c *client) uploadCommit(ctx context.Context, id string, spec wire.JobSpec) (wire.JobStatus, error) {
	var st wire.JobStatus
	err := c.do(ctx, http.MethodPost, "/uploads/"+id+"/commit", spec, &st)
	return st, err
}

func (c *client) uploadAbort(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/uploads/"+id, nil, nil)
}

func (c *client) status(ctx context.Context, jobID int) (wire.JobStatus, error) {
	var st wire.JobStatus
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/jobs/%d", jobID), nil, &st)
	return st, err
}

func (c *client) cancel(ctx context.Context, jobID int) error {
	return c.do(ctx, http.MethodPost, fmt.Sprintf("/jobs/%d/cancel", jobID), nil, nil)
}

// page fetches one window of a job's sorted output from endpoint ("keys"
// or "records"), asking for the binary body and taking whichever encoding
// the worker answers in.  A binary page's keys decode straight into dst.
func (c *client) page(ctx context.Context, jobID int, endpoint string, offset int, dst []int64) (wire.Page, error) {
	var pg wire.Page
	path := fmt.Sprintf("/jobs/%d/%s?offset=%d&limit=%d", jobID, endpoint, offset, len(dst))
	err := c.send(ctx, http.MethodGet, path, "", wire.PageContentType, nil, func(resp *http.Response) (err error) {
		if resp.Header.Get("Content-Type") == wire.PageContentType {
			pg, err = wire.ReadPage(resp.Body, resp.ContentLength, dst)
			return err
		}
		pg = wire.Page{}
		return recvJSON(resp, &pg)
	})
	return pg, err
}
