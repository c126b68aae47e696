// Package pdmdapi is the pdmd HTTP surface as an importable handler: the
// JSON job API over a repro.Scheduler that cmd/pdmd serves, the
// distributed-sort coordinator (internal/dist) drives as a client, and the
// in-process multi-node tests mount on httptest.
//
// Endpoints:
//
//	GET  /healthz                     liveness + default job geometry
//	POST /jobs                        submit a job (inline keys/payloads
//	                                  or a server-side workload spec)
//	GET|POST /plan                    dry-run the cost-model planner
//	GET  /jobs                        list all jobs
//	GET  /jobs/{id}                   poll one job's status
//	POST /jobs/{id}/cancel            cancel a queued or running job
//	GET  /jobs/{id}/keys              paginated sorted keys (a page)
//	GET  /jobs/{id}/records           paginated sorted keys + payloads
//	                                  (a page)
//	GET  /stats                       aggregate statistics as JSON
//	GET  /metrics                     the same in Prometheus text format
//	POST /uploads                     create a staged upload (idempotent
//	                                  on the client-chosen id)
//	POST /uploads/{id}/pages?seq=K    append one page (idempotent on seq)
//	                                  (a page)
//	POST /uploads/{id}/commit         turn the staged pages into a job
//	                                  (idempotent: re-commit returns the
//	                                  same job)
//	DELETE /uploads/{id}              abort and free a staged upload
//
// The uploads endpoints exist for coordinators shipping shards too large
// for one submit body: pages arrive independently (any order, safely
// retried by sequence number), are byte-accounted against a global staging
// cap, and expire after a TTL if the coordinator dies mid-upload.  Commit
// assembles the pages in sequence order into a normal job submission, so
// the scheduler below never sees a partial input.
//
// The three page endpoints carry one type, wire.Page, in either of two
// bodies.  JSON is the default and what a request that says nothing gets,
// byte for byte.  The binary body, application/x-pdm-page (layout beside
// wire.PageContentType: a 32-byte little-endian header, the keys as int64
// words, length-prefixed payloads), is plain content negotiation: a
// download answers in it when Accept lists it, and an upload may send it
// — with a Content-Type saying so — to a worker whose /healthz answer
// carried it as Accept-Post.  Both bodies pass the same checks and caps.
//
// Accounting contract: the handler owns no budgets of its own beyond the
// submit-body cap and the staging cap — every admitted byte and key is
// budgeted by the scheduler it fronts, and the pagination contract
// (clamping limits, 400 on offsets beyond the data) keeps clients from
// mistaking a stale total for the end of the data.
package pdmdapi
