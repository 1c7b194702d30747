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
