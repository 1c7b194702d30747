package ecvslrc_test

import (
	"fmt"

	"ecvslrc"
)

func ExampleApps() {
	fmt.Println(ecvslrc.Apps())
	// Output: [SOR SOR+ QS Water Barnes-Hut IS 3D-FFT]
}

func ExampleImpls() {
	fmt.Println(ecvslrc.Impls())
	// Output: [EC-ci EC-time EC-diff LRC-ci LRC-time LRC-diff]
}

// Run one application of the suite under both models and compare it with
// its sequential reference.
func ExampleRun() {
	const app = "IS"
	seq, err := ecvslrc.RunSeq(app, ecvslrc.Test)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s sequential reference: %v\n", app, seq)
	for _, impl := range ecvslrc.Impls() {
		st, err := ecvslrc.Run(app, impl, 8, ecvslrc.Test)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-10s %s\n", impl, st)
	}
	// Output:
	// IS sequential reference: 12.36ms
	// EC-ci      time=39.16ms msgs=202 data=0.03MB faults=0 misses=0 locks=24(+24ro) barriers=6
	// EC-time    time=38.73ms msgs=202 data=0.03MB faults=0 misses=0 locks=24(+24ro) barriers=6
	// EC-diff    time=47.96ms msgs=202 data=0.14MB faults=0 misses=0 locks=24(+24ro) barriers=6
	// LRC-ci     time=91.47ms msgs=482 data=0.12MB faults=42 misses=42 locks=24(+0ro) barriers=6
	// LRC-time   time=95.12ms msgs=482 data=0.12MB faults=66 misses=42 locks=24(+0ro) barriers=6
	// LRC-diff   time=94.21ms msgs=482 data=0.12MB faults=66 misses=42 locks=24(+0ro) barriers=6
}

// Water's per-molecule locks against LRC's page prefetch, then the Section
// 7.2 restructuring: splitting the displacement array, with per-processor
// locks, gives EC a comparable prefetch effect.
func ExampleRun_molecular() {
	for _, app := range []string{"Water", "Water-split"} {
		for _, impl := range []string{"EC-ci", "LRC-diff"} {
			st, err := ecvslrc.Run(app, impl, 8, ecvslrc.Bench)
			if err != nil {
				fmt.Println(err)
				return
			}
			fmt.Printf("%-11s %-8s %s\n", app, impl, st)
		}
	}
	// Output:
	// Water       EC-ci    time=1.49s msgs=9413 data=0.50MB faults=0 misses=0 locks=2238(+1488ro) barriers=6
	// Water       LRC-diff time=1.47s msgs=8174 data=1.51MB faults=2657 misses=725 locks=1863(+0ro) barriers=6
	// Water-split EC-ci    time=1.20s msgs=6104 data=0.34MB faults=0 misses=0 locks=2262(+96ro) barriers=6
	// Water-split LRC-diff time=1.96s msgs=16156 data=2.12MB faults=3615 misses=1712 locks=1863(+0ro) barriers=6
}

// Quicksort's task queue (Sections 3.3 and 7.2): a task's bounds are not
// page-aligned, so LRC's pages bounce more data than EC's exactly-bound
// sub-arrays (compare the data column).
func ExampleRun_taskqueue() {
	for _, impl := range []string{"EC-diff", "LRC-time", "LRC-diff"} {
		st, err := ecvslrc.Run("QS", impl, 8, ecvslrc.Bench)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-8s %s\n", impl, st)
	}
	// Output:
	// EC-diff  time=815.53ms msgs=1689 data=0.65MB faults=288 misses=0 locks=730(+0ro) barriers=2
	// LRC-time time=1.18s msgs=3857 data=1.13MB faults=872 misses=325 locks=736(+0ro) barriers=2
	// LRC-diff time=1.18s msgs=3293 data=2.79MB faults=894 misses=352 locks=475(+0ro) barriers=2
}

// 3D-FFT's transpose, where the coherence unit decides the winner (Section
// 7.2): EC's update protocol ships an eight-page transpose block in one lock
// exchange, while LRC's invalidate protocol misses page by page.
func ExampleRun_transpose() {
	for _, impl := range ecvslrc.Impls() {
		st, err := ecvslrc.Run("3D-FFT", impl, 8, ecvslrc.Bench)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-8s %s\n", impl, st)
	}
	// Output:
	// EC-ci    time=803.44ms msgs=1136 data=2.35MB faults=0 misses=0 locks=512(+280ro) barriers=8
	// EC-time  time=825.10ms msgs=1136 data=2.35MB faults=704 misses=0 locks=512(+280ro) barriers=8
	// EC-diff  time=856.85ms msgs=1136 data=3.27MB faults=704 misses=0 locks=512(+280ro) barriers=8
	// LRC-ci   time=1.03s msgs=2352 data=4.74MB faults=1120 misses=1120 locks=0(+0ro) barriers=8
	// LRC-time time=1.03s msgs=2352 data=4.74MB faults=2144 misses=1120 locks=0(+0ro) barriers=8
	// LRC-diff time=1.08s msgs=2352 data=6.60MB faults=2144 misses=1120 locks=0(+0ro) barriers=8
}
