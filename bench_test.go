// Benchmarks regenerating the paper's evaluation artifacts (one benchmark
// per table/figure, plus the ablations README's "Benchmarks" section
// lists). Run with:
//
//	go test -bench=. -benchmem
//
// Shapes to compare against the paper (absolute numbers are simulator
// numbers): instrumentation levels order baseline <= unblock < +sinstr ~
// +dinstr ~ +qdet (Table 3); state transfer grows with connections,
// steeper for process-per-connection servers (Figure 3); call-stack-ID
// replay matching tolerates reordering that global ordering conflicts on;
// allocator tagging costs most on allocation-intensive workloads.
package mcr

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/quiesce"
	"repro/internal/replaylog"
	"repro/internal/servers"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/workload"
)

func launchBench(b *testing.B, spec *servers.Spec, opts core.Options) (*core.Engine, *kernel.Kernel) {
	b.Helper()
	if spec.Name == "httpd" {
		servers.SetHttpdPoolThreads(4)
	}
	k := kernel.New()
	servers.SeedFiles(k)
	e, err := core.NewEngine(k, opts)
	if err != nil {
		b.Fatalf("engine %s: %v", spec.Name, err)
	}
	if _, err := e.Launch(spec.Version(0)); err != nil {
		b.Fatalf("launch %s: %v", spec.Name, err)
	}
	return e, k
}

// BenchmarkTable1Profiling measures a full quiescence-profiling run
// (launch, workload, report) per server.
func BenchmarkTable1Profiling(b *testing.B) {
	for _, spec := range servers.Catalog() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prof := quiesce.NewProfiler()
				prof.Start()
				e, k := launchBench(b, spec, core.Options{Profiler: prof})
				sessions, err := workload.ProfileWorkload(k, spec.Name, spec.Port)
				if err != nil {
					b.Fatal(err)
				}
				time.Sleep(50 * time.Millisecond) // accumulate QP residency
				rep := prof.Report()
				if rep.QuiescentPoints() != spec.Paper.QP {
					b.Fatalf("QP = %d, want %d", rep.QuiescentPoints(), spec.Paper.QP)
				}
				b.StopTimer()
				workload.CloseSessions(sessions)
				e.Shutdown()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkTable2Analysis measures the conservative pointer analysis over
// a loaded server image.
func BenchmarkTable2Analysis(b *testing.B) {
	for _, spec := range servers.Catalog() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			e, k := launchBench(b, spec, core.Options{})
			sessions, err := workload.OpenSessions(k, spec.Name, spec.Port, 4)
			if err != nil {
				b.Fatal(err)
			}
			inst := e.Current()
			if _, err := inst.Quiesce(10 * time.Second); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := trace.AnalyzeInstance(inst, types.DefaultPolicy(), nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			inst.Resume()
			workload.CloseSessions(sessions)
			e.Shutdown()
		})
	}
}

// BenchmarkTable3Overhead measures the benchmark workload at each
// instrumentation level (normalize level times against baseline by hand
// or via mcr-bench -table 3).
func BenchmarkTable3Overhead(b *testing.B) {
	levels := []program.Instr{program.InstrBaseline, program.InstrUnblock,
		program.InstrStatic, program.InstrDynamic, program.InstrQDet}
	for _, spec := range servers.Catalog() {
		spec := spec
		for _, level := range levels {
			level := level
			b.Run(fmt.Sprintf("%s/%v", spec.Name, level), func(b *testing.B) {
				e, k := launchBench(b, spec, core.Options{Instr: level})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					switch spec.Name {
					case "httpd":
						_, err = workload.RunWebBench(k, spec.Port, 100, 2, false)
					case "nginx":
						_, err = workload.RunWebBench(k, spec.Port, 100, 2, true)
					case "vsftpd":
						_, err = workload.RunFTPBench(k, spec.Port, 4, 4)
					case "sshd":
						_, err = workload.RunSSHBench(k, spec.Port, 2, 4)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				e.Shutdown()
			})
		}
	}
}

// BenchmarkFigure3StateTransfer measures one full live update at varying
// numbers of open connections (state-transfer time dominates the trend).
func BenchmarkFigure3StateTransfer(b *testing.B) {
	for _, spec := range servers.Catalog() {
		spec := spec
		for _, conns := range []int{0, 5, 10} {
			conns := conns
			b.Run(fmt.Sprintf("%s/conns=%d", spec.Name, conns), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					e, k := launchBench(b, spec, core.Options{
						QuiesceTimeout: 30 * time.Second,
						StartupTimeout: 30 * time.Second,
					})
					sessions, err := workload.OpenSessions(k, spec.Name, spec.Port, conns)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					rep, err := e.Update(spec.Version(1))
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					b.ReportMetric(float64(rep.TransferWork().Microseconds()), "transfer-µs")
					workload.CloseSessions(sessions)
					e.Shutdown()
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkUpdateTime measures one complete live update per server (the
// <1s update-time claim).
func BenchmarkUpdateTime(b *testing.B) {
	for _, spec := range servers.Catalog() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, k := launchBench(b, spec, core.Options{})
				sessions, err := workload.OpenSessions(k, spec.Name, spec.Port, 2)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := e.Update(spec.Version(1)); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				workload.CloseSessions(sessions)
				e.Shutdown()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkQuiescence measures barrier convergence on a loaded server
// (the <100ms quiescence-time claim).
func BenchmarkQuiescence(b *testing.B) {
	for _, spec := range servers.Catalog() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			e, k := launchBench(b, spec, core.Options{})
			sessions, err := workload.OpenSessions(k, spec.Name, spec.Port, 4)
			if err != nil {
				b.Fatal(err)
			}
			inst := e.Current()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := inst.Quiesce(10 * time.Second)
				if err != nil {
					b.Fatal(err)
				}
				inst.Resume()
				b.ReportMetric(float64(d.Microseconds()), "quiesce-µs")
			}
			b.StopTimer()
			workload.CloseSessions(sessions)
			e.Shutdown()
		})
	}
}

// BenchmarkAllocInstrumentation is the SPEC-like allocator microbenchmark
// (S1): allocation-heavy churn with tag writes off and on.
func BenchmarkAllocInstrumentation(b *testing.B) {
	for _, tagged := range []bool{false, true} {
		tagged := tagged
		name := "untagged"
		if tagged {
			name = "tagged"
		}
		b.Run(name, func(b *testing.B) {
			as := mem.NewAddressSpace()
			ix := mem.NewObjectIndex()
			heap, err := mem.NewAllocator(as, ix, 0x2000_0000, "bench")
			if err != nil {
				b.Fatal(err)
			}
			heap.SetTagging(tagged)
			var live []mem.Addr
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o, err := heap.Alloc(48, nil, uint64(i%13))
				if err != nil {
					b.Fatal(err)
				}
				live = append(live, o.Addr)
				if len(live) > 64 {
					if err := heap.Free(live[0]); err != nil {
						b.Fatal(err)
					}
					live = live[1:]
				}
			}
		})
	}
}

// BenchmarkReplayMatching is the matching-strategy ablation: call-stack-ID
// matching vs the global-ordering baseline on a reordered startup.
func BenchmarkReplayMatching(b *testing.B) {
	mkLog := func() *replaylog.Log {
		l := replaylog.NewLog()
		for i := 0; i < 64; i++ {
			stack := []string{"main", fmt.Sprintf("init_%d", i%8)}
			l.Append(replaylog.Record{
				StackID: replaylog.StackID(stack), Stack: stack,
				Call: "socket", Args: []any{i}, Result: i + 3, Immutable: true,
			})
		}
		l.Seal()
		return l
	}
	for _, strat := range []replaylog.Strategy{replaylog.StrategyStackID, replaylog.StrategyGlobalOrder} {
		strat := strat
		name := map[replaylog.Strategy]string{
			replaylog.StrategyStackID:     "stackid",
			replaylog.StrategyGlobalOrder: "globalorder",
		}[strat]
		b.Run(name, func(b *testing.B) {
			log := mkLog()
			conflicts := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rp := replaylog.NewReplayer(log, strat)
				// Replay with per-site reordering (site order reversed).
				for site := 7; site >= 0; site-- {
					for j := site; j < 64; j += 8 {
						stack := []string{"main", fmt.Sprintf("init_%d", site)}
						_, out := rp.Match(replaylog.StackID(stack), stack, "socket", []any{j})
						if out == replaylog.Conflicted {
							conflicts++
						}
					}
				}
			}
			b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/op")
		})
	}
}

// BenchmarkTracingPolicy is the hybrid-vs-precise policy ablation: the
// conservative analysis under the default (hybrid) policy against the
// fully precise policy (which misses hidden pointers but scans less).
func BenchmarkTracingPolicy(b *testing.B) {
	e, k := launchBench(b, servers.NginxSpec(), core.Options{})
	defer e.Shutdown()
	sessions, err := workload.OpenSessions(k, "nginx", servers.NginxPort, 8)
	if err != nil {
		b.Fatal(err)
	}
	defer workload.CloseSessions(sessions)
	inst := e.Current()
	if _, err := inst.Quiesce(10 * time.Second); err != nil {
		b.Fatal(err)
	}
	defer inst.Resume()
	for _, cfg := range []struct {
		name string
		pol  types.Policy
	}{
		{"hybrid-default", types.DefaultPolicy()},
		{"fully-precise", types.FullyPrecisePolicy()},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			pinned := 0
			for i := 0; i < b.N; i++ {
				analyses, err := trace.AnalyzeInstance(inst, cfg.pol, nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, an := range analyses {
					pinned += len(an.Immutable)
				}
			}
			b.ReportMetric(float64(pinned)/float64(b.N), "immutable/op")
		})
	}
}

// BenchmarkDirtyFilter is the soft-dirty ablation: transfer volume with
// and without dirty-object filtering.
func BenchmarkDirtyFilter(b *testing.B) {
	for _, disable := range []bool{false, true} {
		disable := disable
		name := "filtered"
		if disable {
			name = "unfiltered"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, k := launchBench(b, servers.NginxSpec(), core.Options{Transfer: core.TransferOptions{DisableDirtyFilter: disable}})
				sessions, err := workload.OpenSessions(k, "nginx", servers.NginxPort, 5)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rep, err := e.Update(servers.NginxVersion(1))
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				b.ReportMetric(float64(rep.Transfer.BytesTransferred), "bytes/op")
				workload.CloseSessions(sessions)
				e.Shutdown()
				b.StartTimer()
			}
		})
	}
}

// synthTransferVersion builds a version whose startup allocates a large
// synthetic heap: a precisely traced linked list of `nodes` typed objects
// plus a chain of `blobs` opaque 512-byte buffers linked by hidden
// pointers (conservatively scanned). Versions are layout-identical across
// seq so a transfer into the same new instance is repeatable, which lets
// the benchmark below measure transfer alone, not instance startup.
func synthTransferVersion(seq, nodes, blobs int) *program.Version {
	reg := types.NewRegistry()
	node := &types.Type{Name: "bn_t", Kind: types.KindStruct}
	node.Fields = []types.Field{
		{Name: "value", Offset: 0, Type: types.Scalar(types.KindInt64)},
		{Name: "next", Offset: 8, Type: types.PointerTo(node)},
		{Name: "buddy", Offset: 16, Type: types.PointerTo(node)},
	}
	node.Size, node.Align = 24, 8
	reg.Define(node)
	return &program.Version{
		Program: "benchheap",
		Release: fmt.Sprintf("v%d", seq+1),
		Seq:     seq,
		Types:   reg,
		Globals: []program.GlobalSpec{
			{Name: "list", Type: "bn_t"},
			{Name: "anchor", Size: 64},
		},
		Annotations: program.NewAnnotations(),
		Main: func(t *program.Thread) error {
			t.Enter("main")
			defer t.Exit()
			if err := t.Call("bench_init", func() error {
				p := t.Proc()
				head := p.MustGlobal("list")
				prev := head
				for i := 0; i < nodes; i++ {
					n, err := t.Malloc("bn_t")
					if err != nil {
						return err
					}
					if err := p.WriteField(n, "value", uint64(i)*3+1); err != nil {
						return err
					}
					if err := p.WriteField(prev, "next", uint64(n.Addr)); err != nil {
						return err
					}
					prev = n
				}
				fill := make([]byte, 512)
				for i := range fill {
					fill[i] = 0xA5 // never aliases a mapped address
				}
				var first, last *mem.Object
				for i := 0; i < blobs; i++ {
					bo, err := t.MallocBytes(512)
					if err != nil {
						return err
					}
					if err := p.WriteBytes(bo, 0, fill); err != nil {
						return err
					}
					if last != nil {
						if err := p.WriteWordAt(last, 0, uint64(bo.Addr)); err != nil {
							return err
						}
					} else {
						first = bo
					}
					last = bo
				}
				return p.WriteWordAt(p.MustGlobal("anchor"), 0, uint64(first.Addr))
			}); err != nil {
				return err
			}
			return t.Loop("bench_loop", func() error {
				if err := t.IdleQP("idle@bench_loop"); err != nil {
					if errors.Is(err, program.ErrStopped) {
						return program.ErrLoopExit
					}
					return err
				}
				return nil
			})
		},
	}
}

// BenchmarkTransferParallelism compares sequential (workers=1) and
// parallel intra-process mutable tracing over a large synthetic heap —
// the hot path of update downtime. Transfer results are bit-identical at
// every worker count; only wall-clock should change. Baselines live in
// BENCH_transfer.json.
func BenchmarkTransferParallelism(b *testing.B) {
	const nodes, blobs = 4000, 256
	start := func(seq int) *program.Instance {
		inst, err := program.NewInstance(synthTransferVersion(seq, nodes, blobs), kernel.New(), program.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := inst.Start(); err != nil {
			b.Fatal(err)
		}
		if err := inst.WaitStartup(30 * time.Second); err != nil {
			b.Fatal(err)
		}
		inst.CompleteStartup()
		return inst
	}
	v1 := start(0)
	defer v1.Terminate()
	an, err := trace.AnalyzeProc(v1.Root(), types.DefaultPolicy(), nil)
	if err != nil {
		b.Fatal(err)
	}
	v2 := start(1)
	defer v2.Terminate()
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := trace.Options{
				Policy:             types.DefaultPolicy(),
				DisableDirtyFilter: true, // force a full copy of the heap
				Parallelism:        workers,
			}
			var last trace.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := trace.TransferProc(v1.Root(), v2.Root(), an, opts)
				if err != nil {
					b.Fatal(err)
				}
				last = s
			}
			b.ReportMetric(float64(last.ObjectsTransferred), "objects/op")
			b.ReportMetric(float64(last.BytesTransferred), "bytes/op")
		})
	}
}

// BenchmarkMemoryFootprint reports instrumented-vs-baseline RSS (the
// memory-usage experiment M1) as custom metrics.
func BenchmarkMemoryFootprint(b *testing.B) {
	res, err := experiments.RunMemory(experiments.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range res.Rows {
		row := row
		b.Run(row.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// The measurement was taken once above; report it per run.
			}
			b.ReportMetric(row.Overhead(), "rss-ratio")
			b.ReportMetric(float64(row.MetadataBytes), "metadata-bytes")
		})
	}
}

// BenchmarkDowntime reports the pipelining ablation: the quiesce->commit
// wall clock (and its phase breakdown) of one live update over the
// scan-heavy synthetic heap, on the sequential engine vs the pipelined
// default. Transferred state is bit-identical across engines (RunDowntime
// enforces the checksum and fails otherwise). The acceptance bar: the
// pipelined downtime is >= 25% below sequential at default settings.
// Baselines live in BENCH_downtime.json.
func BenchmarkDowntime(b *testing.B) {
	res, err := experiments.RunDowntime(experiments.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range res.Rows {
		row := row
		b.Run(row.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// The measurement was taken once above; report it per run.
			}
			b.ReportMetric(float64(row.Downtime.Microseconds()), "downtime-µs")
			b.ReportMetric(float64(row.Analysis.Microseconds()), "analysis-µs")
			b.ReportMetric(float64(row.ControlMigration.Microseconds()), "restart-µs")
			b.ReportMetric(float64(row.StateTransfer.Microseconds()), "copy-µs")
			if row.Name == "pipelined" {
				b.ReportMetric(res.Reduction()*100, "reduction-pct")
			}
		})
	}
}

// BenchmarkWarm reports the warm-standby ablation: request->commit wall
// clock of one live update over the scan-heavy synthetic heap, on the
// sequential engine (cold), the pipelined engine (cold) and the pipelined
// engine with the warm daemon armed. Transferred state is bit-identical
// across all three (RunWarm enforces the FNV checksum and fails
// otherwise). The acceptance bar: warm request->commit is >= 50% below
// cold pipelined, with downtime no worse. Baselines live in
// BENCH_warm.json.
func BenchmarkWarm(b *testing.B) {
	res, err := experiments.RunWarm(experiments.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range res.Rows {
		row := row
		b.Run(row.Mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// The measurement was taken once above; report it per run.
			}
			b.ReportMetric(float64(row.RequestToCommit.Microseconds()), "req-to-commit-µs")
			b.ReportMetric(float64(row.PreQuiesce.Microseconds()), "pre-quiesce-µs")
			b.ReportMetric(float64(row.Downtime.Microseconds()), "downtime-µs")
			if row.Mode == "warm" {
				b.ReportMetric(res.LatencyReduction()*100, "reduction-pct")
			}
		})
	}
	forks, err := experiments.RunWarmForks(experiments.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("forkheavy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
		}
		b.ReportMetric(float64(forks.HotReanalyses), "hot-reanalyses")
		b.ReportMetric(float64(forks.IdleReanalyses), "idle-reanalyses")
		b.ReportMetric(forks.LatencyReduction()*100, "reduction-pct")
	})
}

// BenchmarkCheckpointPrecopy reports the downtime-vs-dirty-ratio shape of
// the incremental pre-copy checkpoint engine: bytes the downtime copy
// reads from live memory with pre-copy vs the full-copy baseline, per
// inter-epoch dirty ratio. The byte counts are deterministic (independent
// of CPU count); baselines live in BENCH_checkpoint.json. The acceptance
// bar: >= 60% reduction at <= 20% dirty.
func BenchmarkCheckpointPrecopy(b *testing.B) {
	res, err := experiments.RunCheckpoint(experiments.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range res.Rows {
		row := row
		b.Run(fmt.Sprintf("dirty=%d%%", int(row.DirtyRatio*100)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// The measurement was taken once above; report it per run.
			}
			b.ReportMetric(float64(row.BaselineBytes), "baseline-bytes")
			b.ReportMetric(float64(row.LiveBytes), "live-bytes")
			b.ReportMetric(float64(row.ShadowBytes), "shadow-bytes")
			b.ReportMetric(row.Reduction()*100, "reduction-pct")
		})
	}
}

// BenchmarkOverhead reports the live-traffic overhead curve: the warm
// daemon's serving-throughput cost per duty-cycle setting under the real
// servers' sustained workloads, plus the mid-traffic warm update audit
// (traffic through quiesce/commit/rollback, responses validated, transfer
// shadow-verified and FNV-checksummed — RunOverhead fails otherwise).
// Baselines live in BENCH_overhead.json.
func BenchmarkOverhead(b *testing.B) {
	res, err := experiments.RunOverhead(experiments.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range res.Points {
		b.Run(fmt.Sprintf("%s/duty=%d%%", p.Server, int(p.DutyCycle*100)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// The measurement was taken once above; report it per run.
			}
			b.ReportMetric(p.BaselineRPS, "baseline-rps")
			b.ReportMetric(p.WarmRPS, "warm-rps")
			b.ReportMetric(p.OverheadPct()*100, "overhead-pct")
			b.ReportMetric(float64(p.Passes), "passes")
			b.ReportMetric(p.MeasuredDuty*100, "measured-duty-pct")
		})
	}
	for _, u := range res.Updates {
		name := fmt.Sprintf("%s/update", u.Server)
		if u.Rollback {
			name = fmt.Sprintf("%s/rollback", u.Server)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
			}
			b.ReportMetric(float64(u.RequestToCommit.Microseconds()), "req-to-commit-µs")
			b.ReportMetric(float64(u.Downtime.Microseconds()), "downtime-µs")
			b.ReportMetric(float64(u.ShadowLagAtRequest), "lag-at-request-pages")
			b.ReportMetric(float64(u.RequestsDuring), "requests-during")
		})
	}
}

// BenchmarkCanary reports the post-commit canary evaluation: a plain
// warm commit (overhead reference), a healthy update finalized through
// the SLO window, and a forced serving regression caught and
// auto-reverted under live traffic — RunCanary fails on a missed
// regression, a wrong response, or a failed response through the revert.
// Baselines live in BENCH_canary.json.
func BenchmarkCanary(b *testing.B) {
	res, err := experiments.RunCanary(experiments.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range res.Rows {
		b.Run(fmt.Sprintf("%s/%s", row.Server, row.Scenario), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// The measurement was taken once above; report it per run.
			}
			b.ReportMetric(row.BaselineRPS, "baseline-rps")
			b.ReportMetric(row.WindowRPS, "window-rps")
			b.ReportMetric(float64(row.WindowP99.Microseconds()), "window-p99-µs")
			b.ReportMetric(float64(row.Intervals), "monitor-ticks")
			b.ReportMetric(float64(row.Errors+row.BadResponses), "failed-responses")
		})
	}
	b.Run("httpd/canary-overhead", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
		}
		b.ReportMetric(res.CanaryOverheadPct()*100, "overhead-pct")
	})
}

// BenchmarkFaults runs the update-time fault-injection campaign: every
// fault kind at every eligible phase under live traffic, each cell
// asserting guaranteed rollback (cause classification, bit-identical old
// state, restored soft-dirty accounting, zero failed responses, no
// leaks). RunFaults fails internally on any violated clause, so every
// reported cell already survived.
func BenchmarkFaults(b *testing.B) {
	res, err := experiments.RunFaults(experiments.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range res.Rows {
		b.Run(fmt.Sprintf("%s/%s", row.Phase, row.Cell), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// The campaign ran once above; report its cells per run.
			}
			b.ReportMetric(float64(row.RecoveryTime.Microseconds()), "recovery-µs")
			b.ReportMetric(float64(row.RequestsAfter), "requests-after")
			b.ReportMetric(float64(row.Errors+row.BadResponses), "failed-responses")
		})
	}
	b.Run("campaign/kinds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
		}
		b.ReportMetric(float64(res.FaultKinds()), "fault-kinds")
	})
}

// BenchmarkRollout reports the fleet-rollout campaign: a healthy
// canary-gated rolling update across a 3-member fleet (aggregate
// throughput sustained through every wave) and two fault-injected
// rollouts that abort with the failing member's cause bubbled up
// verbatim, zero failed responses everywhere.
func BenchmarkRollout(b *testing.B) {
	res, err := experiments.RunRollout(experiments.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range res.Rows {
		b.Run(row.Scenario, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// The campaign ran once above; report its rows per run.
			}
			b.ReportMetric(row.AggregateRPS, "aggregate-rps")
			b.ReportMetric(row.MinWaveRPS, "min-wave-rps")
			b.ReportMetric(float64(row.Waves), "waves-started")
			b.ReportMetric(float64(row.Errors+row.BadResponses), "failed-responses")
		})
	}
}
