package repro_test

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/workload"
)

// Sorting with an explicitly chosen algorithm reports the paper's pass
// counts exactly.
func Example() {
	m, err := repro.NewMachine(repro.MachineConfig{Memory: 1024})
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()

	keys := workload.Perm(1024*32, 1) // M·√M keys: the three-pass capacity
	report, err := m.Sort(keys, repro.ThreePassLMM)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %.0f read passes, %.0f write passes\n",
		report.Algorithm, report.ReadPasses, report.WritePasses)
	// Output:
	// ThreePass2: 3 read passes, 3 write passes
}

// Plan shows which algorithm Auto would pick as the input grows.
func ExampleMachine_Plan() {
	m, err := repro.NewMachine(repro.MachineConfig{Memory: 1024})
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	for _, n := range []int{2048, 32768, 1048576} {
		fmt.Printf("N = %7d -> %s\n", n, m.Plan(n))
	}
	// Output:
	// N =    2048 -> ExpectedTwoPass
	// N =   32768 -> ThreePass2
	// N = 1048576 -> SevenPass
}

// Explain returns the planner's ranked candidate table: predicted passes,
// the padded length each algorithm's geometry forces, and calibrated wall
// time, with Chosen naming what Auto will run.  The analytic columns are
// deterministic; only the seconds depend on the machine's calibration.
func ExampleMachine_Explain() {
	m, err := repro.NewMachine(repro.MachineConfig{Memory: 1024})
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	rep, err := m.Explain(repro.SortSpec{N: 2048})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("chosen:", rep.Chosen)
	top := rep.Candidates[0]
	fmt.Printf("%s: %.0f read passes over %d padded keys\n",
		string(top.Algorithm), top.ReadPasses, top.PaddedN) // the short name; %s alone prints the paper's
	// Output:
	// chosen: exp2
	// exp2: 2 read passes over 2048 padded keys
}

// SortRecords sorts full records — keys with arbitrary byte payloads —
// stably by key, moving the payload bytes through the external
// distribution permutation.
func ExampleMachine_SortRecords() {
	m, err := repro.NewMachine(repro.MachineConfig{Memory: 1024})
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	keys := []int64{42, 7, 42, 19}
	payloads := [][]byte{[]byte("first 42"), []byte("seven"), []byte("second 42"), []byte("nineteen")}
	if _, err := m.SortRecords(keys, payloads, repro.Auto); err != nil {
		log.Fatal(err)
	}
	for i, k := range keys {
		fmt.Printf("%2d %s\n", k, payloads[i])
	}
	// Output:
	//  7 seven
	// 19 nineteen
	// 42 first 42
	// 42 second 42
}

// A Scheduler runs many sort jobs concurrently against shared machine
// budgets; Submit enqueues (FIFO admission), Wait blocks for the result.
func ExampleScheduler() {
	s, err := repro.NewScheduler(repro.SchedulerConfig{Memory: 20000, JobMemory: 1024})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	id, err := s.Submit(repro.JobSpec{
		Workload: &repro.WorkloadSpec{Kind: "perm", N: 2048, Seed: 1},
		KeepKeys: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	st, err := s.Wait(context.Background(), id)
	if err != nil {
		log.Fatal(err)
	}
	keys, err := s.SortedKeys(id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s with %s: %.0f passes, first key %d\n",
		st.State, st.Report.Algorithm, st.Report.Passes, keys[0])
	// Output:
	// done with ExpectedTwoPass: 2 passes, first key 0
}

// Capacity exposes the paper's capacity hierarchy on a given machine.
func ExampleMachine_Capacity() {
	m, err := repro.NewMachine(repro.MachineConfig{Memory: 4096})
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	fmt.Println("2-pass:", m.Capacity(repro.TwoPassExpected))
	fmt.Println("3-pass:", m.Capacity(repro.ThreePassLMM))
	fmt.Println("7-pass:", m.Capacity(repro.SevenPass))
	// Output:
	// 2-pass: 32768
	// 3-pass: 262144
	// 7-pass: 16777216
}
