// Techniques: compare every scheduling technique in this repository on
// one vectorizable loop across machine widths — plain list scheduling
// (no pipelining), modulo scheduling (integral initiation interval),
// POST (resource constraints as a post-pass), and GRiP (resource
// constraints integrated into global scheduling). This reproduces the
// paper's core argument end to end.
package main

import (
	"context"
	"fmt"
	"log"

	grip "repro"
)

func hydro() *grip.Loop {
	// LL1: x[k] = q + y[k]*(r*z[k+10] + t*z[k+11])
	return &grip.Loop{
		Name: "hydro",
		Body: []grip.BodyOp{
			grip.Load("z10", grip.Aff("Z", 1, 10)),
			grip.Load("z11", grip.Aff("Z", 1, 11)),
			grip.Mul("a", "r", "z10"),
			grip.Mul("b", "t", "z11"),
			grip.Add("c", "a", "b"),
			grip.Load("y", grip.Aff("Y", 1, 0)),
			grip.Mul("d", "y", "c"),
			grip.Add("e", "q", "d"),
			grip.Store(grip.Aff("X", 1, 0), "e"),
		},
		Step: 1, TripVar: "n", LiveIn: []string{"q", "r", "t"},
	}
}

func main() {
	// Every technique is a registry backend; the batch engine runs the
	// whole matrix concurrently and returns outcomes in job order.
	techniques := []string{"list", "modulo", "post", "grip"}
	widths := []int{1, 2, 4, 8, 16}
	spec := hydro() // read-only to the schedulers, safe to share across jobs
	var jobs []grip.BatchJob
	for _, fus := range widths {
		for _, tech := range techniques {
			jobs = append(jobs, grip.BatchJob{
				Technique: tech, Spec: spec, Machine: grip.Machine(fus),
			})
		}
	}
	outcomes, err := grip.Batch(context.Background(), jobs, grip.BatchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-5s %12s %12s %12s %12s\n", "FUs", "list", "modulo", "POST", "GRiP")
	for i, o := range outcomes {
		if o.Err != nil {
			log.Fatal(o.Err)
		}
		if i%len(techniques) == 0 {
			if i > 0 {
				fmt.Println()
			}
			fmt.Printf("%-5d", o.Job.Machine.OpSlots)
		}
		fmt.Printf(" %12.2f", o.Result.Speedup)
	}
	fmt.Println()
	fmt.Println("\nlist   = compaction of one iteration, no overlap")
	fmt.Println("modulo = overlap with a single integral initiation interval")
	fmt.Println("POST   = unconstrained pipeline + resource post-pass")
	fmt.Println("GRiP   = resource constraints inside global scheduling (this paper)")

	// Configurations are first-class: a per-job SchedConfig joins the
	// cache key, so a sweep over unwind factors runs through the same
	// engine and cache without the cells colliding.
	cache := grip.NewBatchCache(32)
	fmt.Println("\nGRiP @4FU unwind-factor sweep (distinct cache entries per config):")
	for _, unwind := range []int{12, 24, 48} {
		sweep := []grip.BatchJob{{
			Technique: "grip", Spec: spec, Machine: grip.Machine(4),
			Config: grip.SchedConfig{Unwind: unwind},
		}}
		outs, err := grip.Batch(context.Background(), sweep, grip.BatchOptions{Cache: cache})
		if err != nil {
			log.Fatal(err)
		}
		o := outs[0]
		if o.Err != nil {
			log.Fatal(o.Err)
		}
		fmt.Printf("  unwind=%-3d speedup %.2f converged=%-5v tier=%v\n",
			unwind, o.Result.Speedup, o.Result.Converged, o.Tier)
	}
}
