// Package experiments regenerates every table and figure of the paper's
// evaluation (§8) against the model servers: Table 1 (programs, updates
// and engineering effort), Table 2 (mutable tracing pointer statistics),
// Table 3 (run-time overhead by instrumentation level), Figure 3 (state
// transfer time vs open connections), plus the in-text results: memory
// usage, SPEC-like allocator overhead, quiescence and control-migration
// times, and the dirty-tracking state reduction.
//
// Absolute numbers differ from the paper — the substrate is a simulator,
// not the authors' testbed — but each harness reports our measurements
// side by side with the paper's reference values so the shapes can be
// compared: who wins, by what factor, and where the crossovers fall.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/program"
	"repro/internal/quiesce"
	"repro/internal/servers"
	"repro/internal/workload"
)

// Scale selects experiment sizing: Quick keeps everything test-suite
// friendly; Full approaches the paper's parameters (100k requests, 100
// connections, 50 pool threads).
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

func (s Scale) webRequests() int {
	if s == Full {
		return 100000
	}
	return 400
}

func (s Scale) ftpUsers() int {
	if s == Full {
		return 100
	}
	return 8
}

func (s Scale) ftpCmds() int {
	if s == Full {
		return 50
	}
	return 5
}

func (s Scale) sshSessions() int {
	if s == Full {
		return 20
	}
	return 3
}

func (s Scale) poolThreads() int {
	if s == Full {
		return 50
	}
	return 4
}

func (s Scale) connPoints() []int {
	if s == Full {
		return []int{0, 25, 50, 75, 100}
	}
	return []int{0, 5, 10}
}

// Config parameterizes one experiment run. It is passed through the
// Run* API surface instead of living in package-global state, so
// concurrent runs with different settings cannot interfere and
// cmd/mcr-bench's run() is reentrant. The zero value is the quick-scale
// default configuration.
type Config struct {
	// Scale selects experiment sizing (Quick or Full).
	Scale Scale
	// Parallelism is the state-transfer worker count applied to every
	// engine the experiments launch (0 = trace-layer default).
	Parallelism int
	// Precopy arms the incremental pre-copy checkpoint engine on every
	// launched engine (see core.Options.Precopy).
	Precopy bool
	// PrecopyEpochs bounds pre-copy epochs (0 = checkpoint default).
	PrecopyEpochs int
	// Sequential selects the strictly-ordered update engine instead of
	// the pipelined default (the downtime-ablation baseline; see
	// core.Options.Sequential).
	Sequential bool
	// LiveTraffic drives concurrent client traffic through every Figure 3
	// update instead of leaving the open connections idle, so the
	// pre-copy epochs race a real working set.
	LiveTraffic bool
	// FaultCells narrows the fault-injection campaign to the named cells
	// (empty = the full matrix); the CI smoke runs a representative
	// subset this way.
	FaultCells []string
	// RolloutScenarios narrows the fleet-rollout campaign the same way.
	RolloutScenarios []string
}

// options merges the run configuration into engine options.
func (c Config) options(opts core.Options) core.Options {
	if opts.Transfer.Parallelism == 0 {
		opts.Transfer.Parallelism = c.Parallelism
	}
	if c.Precopy {
		opts.Precopy.Enabled = true
		opts.Precopy.Epochs = c.PrecopyEpochs
	}
	opts.Sequential = c.Sequential
	return opts
}

// launchServer starts one server on a fresh kernel.
func launchServer(spec *servers.Spec, cfg Config, opts core.Options) (*core.Engine, *kernel.Kernel, error) {
	opts = cfg.options(opts)
	k := kernel.New()
	servers.SeedFiles(k)
	e, err := core.NewEngine(k, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: engine %s: %w", spec.Name, err)
	}
	if _, err := e.Launch(spec.Version(0)); err != nil {
		return nil, nil, fmt.Errorf("experiments: launch %s: %w", spec.Name, err)
	}
	return e, k, nil
}

// runBenchWorkload drives the server's §8 benchmark (AB / pyftpdlib / ssh
// test suite stand-ins) and returns the result.
func runBenchWorkload(spec *servers.Spec, k *kernel.Kernel, scale Scale) (workload.BenchResult, error) {
	switch spec.Name {
	case "httpd":
		return workload.RunWebBench(k, spec.Port, scale.webRequests(), 4, false)
	case "nginx":
		return workload.RunWebBench(k, spec.Port, scale.webRequests(), 4, true)
	case "vsftpd":
		return workload.RunFTPBench(k, spec.Port, scale.ftpUsers(), scale.ftpCmds())
	case "sshd":
		return workload.RunSSHBench(k, spec.Port, scale.sshSessions(), scale.ftpCmds())
	}
	return workload.BenchResult{}, fmt.Errorf("experiments: unknown server %s", spec.Name)
}

// profileServer runs the quiescence profiler under the profiling workload
// and returns the report.
func profileServer(spec *servers.Spec, cfg Config) (quiesce.Report, error) {
	if spec.Name == "httpd" {
		old := servers.SetHttpdPoolThreads(cfg.Scale.poolThreads())
		defer servers.SetHttpdPoolThreads(old)
	}
	prof := quiesce.NewProfiler()
	prof.Start()
	e, k, err := launchServer(spec, cfg, core.Options{Profiler: prof})
	if err != nil {
		return quiesce.Report{}, err
	}
	defer e.Shutdown()
	sessions, err := workload.ProfileWorkload(k, spec.Name, spec.Port)
	if err != nil {
		return quiesce.Report{}, err
	}
	defer workload.CloseSessions(sessions)
	time.Sleep(30 * time.Millisecond)
	return prof.Report(), nil
}

// instrOptions builds engine options for one Table 3 configuration.
func instrOptions(level program.Instr, regionInstr bool) core.Options {
	return core.Options{
		Instr:              level,
		RegionInstrumented: regionInstr,
	}
}
