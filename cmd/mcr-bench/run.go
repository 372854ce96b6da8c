package main

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/experiments"
)

// errNothingSelected is returned when no experiment was requested; main
// responds by printing usage.
var errNothingSelected = errors.New("no experiment selected")

// config is the parsed command line.
type config struct {
	Table       int
	Figure3     bool
	Memory      bool
	Spec        bool
	UpdateTime  bool
	Dirty       bool
	Checkpoint  bool
	Downtime    bool
	Warm        bool
	Overhead    bool
	Canary      bool
	Faults      bool
	Rollout     bool
	All         bool
	Full        bool
	Reps        int
	Parallelism int  // state-transfer workers (0 = GOMAXPROCS, 1 = sequential)
	Sequential  bool // strictly-ordered update engine (pipelining ablation)
	LiveTraffic bool // drive concurrent traffic through Figure 3 updates
	Precopy     bool // arm the pre-copy checkpoint engine on every update
}

// run executes every selected experiment, writing rendered results to out.
// Factored out of main so tests can drive it; all configuration travels
// through the experiments.Config value (no package-global state), so
// concurrent run calls with different settings are safe.
func run(cfg config, out io.Writer) error {
	if cfg.Parallelism < 0 {
		return fmt.Errorf("-parallelism must be >= 0, got %d", cfg.Parallelism)
	}
	ecfg := experiments.Config{
		Scale:       experiments.Quick,
		Parallelism: cfg.Parallelism,
		Sequential:  cfg.Sequential,
		LiveTraffic: cfg.LiveTraffic,
		Precopy:     cfg.Precopy,
	}
	if cfg.Full {
		ecfg.Scale = experiments.Full
	}
	ran := false

	if cfg.All || cfg.Table == 1 {
		ran = true
		res, err := experiments.RunTable1(ecfg)
		if err != nil {
			return fmt.Errorf("table 1: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if cfg.All || cfg.Table == 2 {
		ran = true
		res, err := experiments.RunTable2(ecfg)
		if err != nil {
			return fmt.Errorf("table 2: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if cfg.All || cfg.Table == 3 {
		ran = true
		res, err := experiments.RunTable3(ecfg, cfg.Reps)
		if err != nil {
			return fmt.Errorf("table 3: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if cfg.All || cfg.Figure3 {
		ran = true
		res, err := experiments.RunFigure3(ecfg)
		if err != nil {
			return fmt.Errorf("figure 3: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if cfg.All || cfg.Dirty {
		ran = true
		stats, err := experiments.RunDirtyStats(ecfg)
		if err != nil {
			return fmt.Errorf("dirty stats: %w", err)
		}
		fmt.Fprintln(out, "Dirty-object tracking: state-transfer reduction (paper: 68%-86% at 100 conns)")
		for _, d := range stats {
			fmt.Fprintf(out, "%-8s conns=%-4d filtered=%-8d unfiltered=%-8d reduction=%.0f%%\n",
				d.Name, d.Connections, d.Filtered, d.Unfiltered, d.Reduction()*100)
		}
		fmt.Fprintln(out)
	}
	if cfg.All || cfg.Checkpoint {
		ran = true
		res, err := experiments.RunCheckpoint(ecfg)
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if cfg.All || cfg.Downtime {
		ran = true
		res, err := experiments.RunDowntime(ecfg)
		if err != nil {
			return fmt.Errorf("downtime: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if cfg.All || cfg.Warm {
		ran = true
		res, err := experiments.RunWarm(ecfg)
		if err != nil {
			return fmt.Errorf("warm: %w", err)
		}
		fmt.Fprintln(out, res.Render())
		forks, err := experiments.RunWarmForks(ecfg)
		if err != nil {
			return fmt.Errorf("warm forks: %w", err)
		}
		fmt.Fprintln(out, forks.Render())
	}
	if cfg.All || cfg.Overhead {
		ran = true
		res, err := experiments.RunOverhead(ecfg)
		if err != nil {
			return fmt.Errorf("overhead: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if cfg.All || cfg.Canary {
		ran = true
		res, err := experiments.RunCanary(ecfg)
		if err != nil {
			return fmt.Errorf("canary: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if cfg.All || cfg.Faults {
		ran = true
		res, err := experiments.RunFaults(ecfg)
		if err != nil {
			return fmt.Errorf("faults: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if cfg.All || cfg.Rollout {
		ran = true
		res, err := experiments.RunRollout(ecfg)
		if err != nil {
			return fmt.Errorf("rollout: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if cfg.All || cfg.Memory {
		ran = true
		res, err := experiments.RunMemory(ecfg)
		if err != nil {
			return fmt.Errorf("memory: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if cfg.All || cfg.Spec {
		ran = true
		res, err := experiments.RunSpec(ecfg)
		if err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if cfg.All || cfg.UpdateTime {
		ran = true
		res, err := experiments.RunUpdateTime(ecfg)
		if err != nil {
			return fmt.Errorf("update time: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if !ran {
		return errNothingSelected
	}
	return nil
}
