// File-backed disks: the same algorithms running against D real files, one
// pread/pwrite per run of consecutive blocks a disk moves in a pass — the
// closest a single machine gets
// to the paper's D independent disks.  The pass accounting is identical to
// the in-memory simulator; what changes is that you can watch the disk
// files on the filesystem.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"repro"
)

func main() {
	dir, err := os.MkdirTemp("", "pdm-disks-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	const mem = 1 << 12 // M = 4096 -> B = 64, D = 16
	m, err := repro.NewMachine(repro.MachineConfig{
		Memory: mem,
		Dir:    dir,
		// Stream every pass: prefetch 4 stripes ahead, flush 4 behind.
		// Pass accounting is unchanged; wall-clock time on real devices is not.
		Pipeline: repro.PipelineConfig{Prefetch: 4, WriteBehind: 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()

	n := mem * 64 // M * sqrt(M): the three-pass capacity
	keys := make([]int64, n)
	rng := rand.New(rand.NewSource(11))
	for i := range keys {
		keys[i] = rng.Int63() - 1
	}

	rep, err := m.Sort(keys, repro.ThreePassLMM)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sorted %d keys on file-backed disks in %.3f read passes\n", rep.N, rep.ReadPasses)
	fmt.Printf("pipeline: %d prefetch hits, %d stalls, %d write stalls\n",
		rep.PrefetchHits, rep.PrefetchStalls, rep.WriteStalls)

	files, err := filepath.Glob(filepath.Join(dir, "disk*.bin"))
	if err != nil {
		log.Fatal(err)
	}
	var total int64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			log.Fatal(err)
		}
		total += st.Size()
	}
	fmt.Printf("disk files: %d files, %d bytes total (input + runs + merge output)\n", len(files), total)
	fmt.Printf("first disk: %s\n", files[0])
}
