package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/types"
)

// A run is a sequence of streams. Each stream sets the workload up on a
// fresh engine, launches release 0 and runs streamUpdates updates; new
// streams start until the run's duration has passed, and a started
// stream always completes, so every run does whole streams of identical
// shape. Every stream set-up is a setup_s sample; before the first
// stream the run sets up and tears down extraSetups more times so
// setup_s is a median even in a short run.
const (
	streamUpdates = 30
	extraSetups   = 12
)

// scenario is one workload: how to build its server and clients, what
// to do before each update and how to check each outcome.
type scenario interface {
	// start creates the engine, launches release 0 and opens the
	// clients. Everything it does counts as set-up.
	start(p *phase) error
	// next prepares an update (outside the timed window), returns its
	// target release and sets u.inject when a fault is armed for it.
	next(p *phase, u *updateRec) (*program.Version, error)
	// check validates the update's outcome; a non-nil error is an output
	// check failure.
	check(p *phase, u *updateRec) error
	// gap is the pause before each update (0 = back to back).
	gap() time.Duration
}

// phase is one measured run of a workload: its streams' records plus the
// engine and clients of the stream in progress.
type phase struct {
	seed   int64
	rng    *rand.Rand // every generated input of the run, in order
	tr     *tracer    // nil when untraced
	origin time.Time  // update and request times are offsets from here

	// The stream in progress.
	kern  *kernel.Kernel
	eng   *core.Engine
	plane *faultinject.Plane
	load  *loadGen // nil without client traffic
	live  bool     // the workload has client traffic

	setups     []time.Duration
	setupCPU   []time.Duration
	streams    int
	updates    []*updateRec
	violations []string
	reqs       []reqRec
	senders    []*sender
	spans      []span
}

// updateRec is one attempted update and everything measured around it.
type updateRec struct {
	i          int // across the run's streams
	n          int // within its stream
	span       int // the update's root span (-1 untraced)
	fromSeq    int
	target     int
	inject     bool
	start, end time.Duration // since the phase origin
	wall       time.Duration
	cpu        time.Duration // process CPU time while Update ran
	rep        *report       // nil when Update returned no report
	err        string        // Update's error, "" when none
	heapMB     float64       // live Go heap just before the update

	// Traced runs only.
	probe      probeRec
	warm       core.WarmStatus
	dirtyPages int
	rssKB      float64
	procs      int
	threads    int
	startup    time.Duration
}

// probeRec times calls into the layers on the old instance just before
// an update, while it is quiesced.
type probeRec struct {
	ok       bool
	converge time.Duration
	analyze  time.Duration
	discover time.Duration
	digest   time.Duration
}

// report is what the benchmark keeps of an UpdateReport. Keeping the
// report itself would keep whatever it references (adopted page frames,
// analyses) alive after its stream ends, and later heap samples would
// count it.
type report struct {
	rolledBack bool
	cause      string

	downtime, precopy, quiesce, analysis, restart, discovery, copyT time.Duration

	reanalyzed, reused         int
	transfer                   trace.Stats
	precopyPages, handoffPages int
	warm                       bool
	warmLag                    int

	replayed, liveExecuted, conflicted, fdsCollected int
}

func keep(r *core.UpdateReport) *report {
	if r == nil {
		return nil
	}
	return &report{
		rolledBack: r.RolledBack, cause: r.RollbackCause,
		downtime: r.Downtime, precopy: r.PrecopyTime, quiesce: r.QuiesceTime,
		analysis: r.AnalysisTime, restart: r.ControlMigrationTime,
		discovery: r.DiscoveryTime, copyT: r.StateTransferTime,
		reanalyzed: r.ProcsReanalyzed, reused: r.AnalysesReused,
		transfer:     r.Transfer,
		precopyPages: r.Precopy.PagesCopied, handoffPages: r.Precopy.FinalPages,
		warm: r.Warm, warmLag: r.WarmLagAtRequest,
		replayed: r.Replayed, liveExecuted: r.LiveExecuted,
		conflicted: r.Conflicted, fdsCollected: r.FDsCollected,
	}
}

// committed reports that the update replaced the running release.
func (u *updateRec) committed() bool {
	return u.err == "" && u.rep != nil && !u.rep.rolledBack
}

// failedUpdate reports an update whose outcome was not the expected
// one: a rollback or error without an injected fault, or a commit
// despite one.
func (u *updateRec) failedUpdate() bool {
	if u.inject {
		return u.committed()
	}
	return !u.committed()
}

// runPhase measures whole streams of the workload until the duration has
// passed.
func runPhase(newScenario func() scenario, seed int64, d time.Duration, traced bool) (*phase, error) {
	p := &phase{seed: seed, rng: rand.New(rand.NewSource(seed))}
	if traced {
		p.tr = newTracer()
	}
	for r := 0; r < extraSetups; r++ {
		if _, err := p.setup(newScenario); err != nil {
			return nil, err
		}
		p.teardown()
	}
	p.origin = time.Now()
	deadline := p.origin.Add(d)
	for time.Now().Before(deadline) {
		sc, err := p.setup(newScenario)
		if err != nil {
			return nil, err
		}
		err = p.stream(sc)
		p.teardown()
		if err != nil {
			return nil, err
		}
		p.streams++
	}
	p.spans = p.tr.snapshot()
	return p, nil
}

// setup builds one stream's engine and clients and times it. The
// previous stream's garbage is collected first, so it neither slows
// this set-up nor counts in this stream's heap.
func (p *phase) setup(newScenario func() scenario) (scenario, error) {
	runtime.GC()
	sc := newScenario()
	t0, c0 := time.Now(), cpuTime()
	if err := sc.start(p); err != nil {
		p.teardown()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	p.setups = append(p.setups, time.Since(t0))
	p.setupCPU = append(p.setupCPU, cpuTime()-c0)
	return sc, nil
}

// teardown stops the stream's clients and engine, keeping the clients'
// records.
func (p *phase) teardown() {
	if p.load != nil {
		p.load.halt()
		p.reqs = append(p.reqs, p.load.records()...)
		p.senders = append(p.senders, p.load.senders...)
		p.load = nil
	}
	if p.eng != nil {
		p.eng.Shutdown()
		p.eng = nil
	}
}

func (p *phase) violate(format string, args ...any) {
	p.violations = append(p.violations, fmt.Sprintf(format, args...))
}

// stream runs streamUpdates updates with client traffic throughout.
func (p *phase) stream(sc scenario) error {
	if p.load != nil {
		p.load.run(p.origin, time.Now())
	}
	for n := 0; n < streamUpdates; n++ {
		// The pause before each update starts with a full collection,
		// which also measures the live heap. Every server process, the
		// clients and the engine share this one Go heap, so garbage left
		// by the clients and by earlier updates would otherwise be
		// collected during whichever update happened to trigger it.
		t0 := time.Now()
		runtime.GC()
		heap := heapMB()
		time.Sleep(sc.gap() - time.Since(t0))
		if err := p.update(sc, n, heap); err != nil {
			return err
		}
	}
	return nil
}

// update runs one update with its preparation, probes and checks.
func (p *phase) update(sc scenario, n int, heap float64) error {
	i := len(p.updates)
	root := p.tr.begin("bench", "update", -1, i)
	defer p.tr.end(root)
	old := p.eng.Current()
	u := &updateRec{i: i, n: n, span: root, fromSeq: old.Version().Seq, heapMB: heap}
	v, err := sc.next(p, u)
	if err != nil {
		return fmt.Errorf("update %d: prepare: %w", i, err)
	}
	u.target = v.Seq
	if p.tr != nil {
		p.beforeUpdate(old, u, root)
	}
	if u.inject {
		p.plane.Arm(faultinject.PointRestartCrash)
	}
	sp := p.tr.begin("core", "Engine.Update", root, i)
	t0, c0 := time.Now(), cpuTime()
	rep, err := p.eng.Update(v)
	t1, c1 := time.Now(), cpuTime()
	u.cpu = c1 - c0
	u.rep = keep(rep)
	if err != nil {
		u.err = err.Error()
	}
	p.tr.end(sp)
	u.start, u.end, u.wall = t0.Sub(p.origin), t1.Sub(p.origin), t1.Sub(t0)
	if u.inject {
		// A point the update never reached must not fire in the next one.
		p.plane.Disarm(faultinject.PointRestartCrash)
	}
	if err := p.checkUpdate(sc, u, root); err != nil {
		p.violate("update %d: %v", i, err)
	}
	if p.tr != nil {
		p.afterUpdate(u, root)
	}
	p.updates = append(p.updates, u)
	return nil
}

// checkUpdate checks the outcome every workload shares, then the
// workload's own.
func (p *phase) checkUpdate(sc scenario, u *updateRec, root int) error {
	return p.tr.timed("program", "check", root, u.i, func() error {
		cur := p.eng.Current()
		switch {
		case u.inject:
			if u.rep == nil || !u.rep.rolledBack || u.rep.cause != "fault:"+string(faultinject.PointRestartCrash) {
				return fmt.Errorf("injected update did not roll back with fault:restart-crash (%s, err %q)", causeOf(u.rep), u.err)
			}
			if cur.Version().Seq != u.fromSeq {
				return fmt.Errorf("after rollback release %d serves, want %d", cur.Version().Seq, u.fromSeq)
			}
		case u.committed():
			if cur.Version().Seq != u.target {
				return fmt.Errorf("after commit release %d serves, want %d", cur.Version().Seq, u.target)
			}
		}
		return sc.check(p, u)
	})
}

func causeOf(rep *report) string {
	if rep == nil {
		return "no report"
	}
	return fmt.Sprintf("rolledBack=%v cause=%q", rep.rolledBack, rep.cause)
}

// beforeUpdate samples the layers' state and runs the probes on the old
// instance (traced runs only).
func (p *phase) beforeUpdate(old *program.Instance, u *updateRec, root int) {
	u.warm = p.eng.WarmStatus()
	for _, pr := range old.Procs() {
		u.dirtyPages += pr.Space().SoftDirtyCount()
	}
	u.rssKB = float64(old.RSSBytes()) / 1024
	u.probe = p.probe(old, u.i, root)
}

// probe quiesces the old instance, times the trace layer's analysis,
// discovery and digest on it, and resumes it. There is no checkpoint
// probe: a second snapshotter would race the warm daemon's soft-dirty
// accounting.
func (p *phase) probe(old *program.Instance, i, root int) probeRec {
	var pr probeRec
	q := p.tr.begin("quiesce", "Instance.Quiesce", root, i)
	defer func() {
		old.Resume()
		p.tr.end(q)
	}()
	conv, err := old.Quiesce(5 * time.Second)
	if err != nil {
		return pr
	}
	pr.converge = conv
	pol := types.DefaultPolicy()
	timed := func(name string, fn func() error) (time.Duration, error) {
		t0 := time.Now()
		err := p.tr.timed("trace", name, q, i, fn)
		return time.Since(t0), err
	}
	if pr.analyze, err = timed("AnalyzeInstance", func() error {
		_, err := trace.AnalyzeInstance(old, pol, nil)
		return err
	}); err != nil {
		return pr
	}
	if pr.discover, err = timed("DiscoverProc", func() error {
		for _, proc := range old.Procs() {
			if _, err := trace.DiscoverProc(proc, trace.Options{Policy: pol}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return pr
	}
	if pr.digest, err = timed("StateDigest", func() error {
		_, err := trace.StateDigest(old)
		return err
	}); err != nil {
		return pr
	}
	pr.ok = true
	return pr
}

// afterUpdate samples the serving instance (traced runs only).
func (p *phase) afterUpdate(u *updateRec, root int) {
	_ = p.tr.timed("program", "inspect", root, u.i, func() error {
		cur := p.eng.Current()
		u.procs = len(cur.Procs())
		u.threads = len(cur.ThreadsInfo())
		u.startup = cur.StartupDuration()
		return nil
	})
}

// cpuTime is the CPU time the whole process has used, over all its
// threads. The kernel does not charge time the hypervisor steals from
// the VM to the process, so, unlike wall time, it does not grow when
// other tenants of the machine are busy.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// heapMB is the live Go heap as of the last collection, in MiB.
func heapMB() float64 {
	metrics.Read(heapSample)
	return float64(heapSample[0].Value.Uint64()) / (1 << 20)
}
