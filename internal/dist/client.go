package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/wire"
)

// client is the coordinator's view of one pdmd worker: a thin typed layer
// over the worker's JSON API with the hygiene every call needs — a hard
// per-request timeout, bounded retries with backoff on transient failures,
// and a response body that is read to completion and closed on every path
// so the shared connection pool never leaks.
type client struct {
	base    string
	http    *http.Client
	timeout time.Duration
	retries int
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

// do runs one JSON request with the per-call timeout and retry policy.
// The request body is re-marshaled bytes, so every retry sends a fresh
// reader; the response body is always drained and closed.
func (c *client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("dist: marshal %s %s: %w", method, path, err)
		}
	}
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
		code, raw, err := c.once(ctx, method, path, body)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = fmt.Errorf("dist: %s %s%s: %w", method, c.base, path, err)
			continue
		}
		if code >= 200 && code < 300 {
			if out == nil || len(raw) == 0 {
				return nil
			}
			if err := json.Unmarshal(raw, out); err != nil {
				return fmt.Errorf("dist: decode %s %s%s: %w", method, c.base, path, err)
			}
			return nil
		}
		msg := errorMessage(raw)
		lastErr = fmt.Errorf("dist: %s %s%s: %w", method, c.base, path, &statusError{code: code, msg: msg})
		if !retryable(code) {
			return lastErr
		}
	}
	return lastErr
}

// once is a single attempt: its own deadline, body drained and closed
// whatever happens.
func (c *client) once(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	rctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, raw, nil
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

func (c *client) health(ctx context.Context) (wire.Health, error) {
	var h wire.Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

func (c *client) uploadCreate(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/uploads", map[string]string{"id": id}, nil)
}

func (c *client) uploadPage(ctx context.Context, id string, seq int, keys []int64, payloads [][]byte) error {
	body := map[string]any{"keys": keys}
	if payloads != nil {
		body["payloads"] = payloads
	}
	return c.do(ctx, http.MethodPost, fmt.Sprintf("/uploads/%s/pages?seq=%d", id, seq), body, nil)
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

func (c *client) keysPage(ctx context.Context, jobID, offset, limit int) (wire.Page, error) {
	var p wire.Page
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/jobs/%d/keys?offset=%d&limit=%d", jobID, offset, limit), nil, &p)
	return p, err
}

func (c *client) recordsPage(ctx context.Context, jobID, offset, limit int) (wire.Page, error) {
	var p wire.Page
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/jobs/%d/records?offset=%d&limit=%d", jobID, offset, limit), nil, &p)
	return p, err
}
