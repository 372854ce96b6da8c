// Command mcr-bench regenerates the paper's evaluation artifacts against
// the model servers: Tables 1-3, Figure 3, and the in-text measurements
// (memory usage, SPEC-like allocator overhead, update-time components,
// dirty-tracking reduction).
//
// Usage:
//
//	mcr-bench -all            # everything, quick scale
//	mcr-bench -table 2        # one table
//	mcr-bench -figure3 -full  # Figure 3 at the paper's parameters
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		table       = flag.Int("table", 0, "regenerate table N (1, 2 or 3)")
		figure3     = flag.Bool("figure3", false, "regenerate Figure 3")
		memory      = flag.Bool("memory", false, "memory-usage comparison")
		spec        = flag.Bool("spec", false, "SPEC-like allocator overhead")
		updateTime  = flag.Bool("updatetime", false, "update-time components")
		dirty       = flag.Bool("dirtystats", false, "dirty-filter reduction")
		ckpt        = flag.Bool("checkpoint", false, "pre-copy checkpoint: downtime vs dirty ratio")
		downtime    = flag.Bool("downtime", false, "pipelined vs sequential engine: downtime breakdown (always runs both engines with pre-copy armed; -sequential/-precopy do not apply)")
		warm        = flag.Bool("warm", false, "warm-standby readiness daemon: request->commit latency warm vs cold, plus the fork-heavy per-process revalidation scenario")
		overhead    = flag.Bool("overhead", false, "live-traffic overhead: warm-daemon duty-cycle cost curve under the real servers, plus mid-traffic warm updates with shadow-verified transfer")
		canaryExp   = flag.Bool("canary", false, "post-commit canary window: SLO-gated auto-rollback under live traffic, including a forced serving regression")
		faults      = flag.Bool("faults", false, "fault-injection campaign: every fault kind at every eligible update phase under live traffic, each cell asserting guaranteed rollback")
		rollout     = flag.Bool("rollout", false, "fleet rollout campaign: plan/apply rolling updates across an N-member fleet, healthy and fault-aborted, with wave deadline budgets and fleet canary gating")
		all         = flag.Bool("all", false, "run every experiment")
		full        = flag.Bool("full", false, "paper-scale parameters (slow)")
		reps        = flag.Int("reps", 3, "repetitions for Table 3 (best-of)")
		parallelism = flag.Int("parallelism", 0, "state-transfer workers per process (0 = all CPUs, 1 = sequential)")
		sequential  = flag.Bool("sequential", false, "use the strictly-ordered update engine (pipelining ablation)")
		livetraffic = flag.Bool("livetraffic", false, "drive concurrent client traffic through Figure 3 updates")
		precopy     = flag.Bool("precopy", false, "arm the pre-copy checkpoint engine on every update")
	)
	flag.Parse()

	cfg := config{
		Table:       *table,
		Figure3:     *figure3,
		Memory:      *memory,
		Spec:        *spec,
		UpdateTime:  *updateTime,
		Dirty:       *dirty,
		Checkpoint:  *ckpt,
		Downtime:    *downtime,
		Warm:        *warm,
		Overhead:    *overhead,
		Canary:      *canaryExp,
		Faults:      *faults,
		Rollout:     *rollout,
		All:         *all,
		Full:        *full,
		Reps:        *reps,
		Parallelism: *parallelism,
		Sequential:  *sequential,
		LiveTraffic: *livetraffic,
		Precopy:     *precopy,
	}
	if err := run(cfg, os.Stdout); err != nil {
		if errors.Is(err, errNothingSelected) {
			flag.Usage()
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "mcr-bench:", err)
		os.Exit(1)
	}
}
