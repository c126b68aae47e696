// Command pdmd serves the PDM sorting stack over HTTP: a repro.Scheduler
// admits concurrent sort jobs against global memory, disk, and worker
// budgets, and this daemon exposes its job API as JSON endpoints.  The
// handler itself lives in internal/pdmdapi (see its package doc for the
// endpoint reference, including the staged-uploads protocol used by the
// distributed-sort coordinator); this command is the flags and the
// listener.
//
// Example session:
//
//	pdmd -addr :8080 -mem 1048576 -jobmem 65536 &
//	curl -s -X POST localhost:8080/jobs -d \
//	  '{"workload":{"kind":"zipf","n":1000000,"seed":7},"alg":"lmm3"}'
//	curl -s localhost:8080/jobs/1
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/pdmdapi"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	mem := flag.Int("mem", 1<<20, "global internal-memory budget in keys")
	diskBudget := flag.Int("diskbudget", 0, "global scratch budget in keys (0 = 64x mem)")
	workers := flag.Int("workers", 0, "global compute budget (0 = GOMAXPROCS)")
	jobMem := flag.Int("jobmem", 65536, "default per-job internal memory M in keys (perfect square)")
	scratch := flag.String("scratch", "", "scratch directory for file-backed job disks (default: in-memory disks)")
	backend := flag.String("backend", "", "default disk backend for file-backed jobs: file or mmap (requires -scratch)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof handlers under /debug/pprof/")
	queue := flag.Int("queue", 0, "admission queue bound (0 = 1024)")
	prefetch := flag.Int("prefetch", 2, "default per-job prefetch depth in slots of two stripe rows")
	writeBehind := flag.Int("writebehind", 2, "default per-job write-behind depth in slots of two stripe rows")
	maxBody := flag.Int64("maxbody", 64<<20, "largest accepted submit body in bytes")
	maxStaged := flag.Int64("maxstaged", 256<<20, "total bytes held by in-flight staged uploads")
	journalDir := flag.String("journal", "", "journal directory for durable jobs: submissions and pass checkpoints are fsynced there and replayed on restart")
	drainWait := flag.Duration("drainwait", 30*time.Second, "how long SIGTERM waits for running jobs to park at a pass checkpoint (journaled daemons only)")
	flag.Parse()

	sch, err := repro.NewScheduler(repro.SchedulerConfig{
		Memory:     *mem,
		DiskBudget: *diskBudget,
		Workers:    *workers,
		JobMemory:  *jobMem,
		Dir:        *scratch,
		Backend:    *backend,
		MaxQueue:   *queue,
		Pipeline:   repro.PipelineConfig{Prefetch: *prefetch, WriteBehind: *writeBehind},
		JournalDir: *journalDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdmd: %v\n", err)
		os.Exit(1)
	}
	if n := sch.Health().Recovered; n > 0 {
		log.Printf("pdmd: recovered %d job(s) from the journal", n)
	}
	handler := pdmdapi.New(sch, pdmdapi.Options{
		MaxBody:        *maxBody,
		MaxStagedBytes: *maxStaged,
		Pprof:          *pprofOn,
	})
	srv := &http.Server{Addr: *addr, Handler: handler}
	go func() {
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		sig := <-stop
		log.Printf("pdmd: shutting down (%v)", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // exiting either way
		if sig == syscall.SIGTERM && *journalDir != "" {
			// A journaled daemon drains on SIGTERM: running jobs park at
			// their next pass checkpoint (scratch kept, manifest fsynced)
			// and queued jobs stay journaled, so the next pdmd over the
			// same -journal and -scratch picks everything back up.
			dctx, dcancel := context.WithTimeout(context.Background(), *drainWait)
			defer dcancel()
			if err := sch.Drain(dctx); err != nil {
				log.Printf("pdmd: forced drain: %v", err)
			}
		} else {
			sch.Close()
		}
	}()
	log.Printf("pdmd: serving on %s (mem budget %d keys, job M %d)", *addr, *mem, *jobMem)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "pdmd: %v\n", err)
		os.Exit(1)
	}
}
