package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/servers"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/workload"
)

// DowntimeRow is one engine mode's measured update: the quiesce->commit
// wall clock and its phase breakdown, the transfer outcome, and two
// checksums — the whole-state digest and the transfer stream's FNV digest
// — that pin every mode bit-identical.
type DowntimeRow struct {
	Name       string
	Sequential bool

	Quiesce          time.Duration
	Analysis         time.Duration // in-window analysis (validation only when pipelined)
	ControlMigration time.Duration
	Discovery        time.Duration // in-window when sequential, overlapped with restart when pipelined
	StateTransfer    time.Duration
	Downtime         time.Duration // quiesce -> commit
	Total            time.Duration

	AnalysesReused     int
	ProcsReanalyzed    int
	ObjectsTransferred int
	BytesTransferred   uint64
	ShadowFraction     float64

	// StateSum digests the new instance's entire object universe after
	// the update; Checksum is the transfer's own FNV-64a stream digest
	// (VerifyTransfer is armed on every row).
	StateSum uint64
	Checksum uint64

	// Live-traffic rows only: requests completed across the update and
	// the failed-response count (errors + protocol-bad responses), which
	// must be zero — the update must not cut a request off.
	LiveRequests    int
	FailedResponses int
}

// DowntimeResult is the downtime ablation: the same update measured across
// engine modes — sequential, pipelined, warm standby — plus a live-traffic
// httpd row (the update must not drop requests).
type DowntimeResult struct {
	Objects    int
	HeapBytes  uint64
	GOMAXPROCS int
	Rows       []DowntimeRow
}

// Row returns the named row (nil if absent).
func (r *DowntimeResult) Row(name string) *DowntimeRow {
	for i := range r.Rows {
		if r.Rows[i].Name == name {
			return &r.Rows[i]
		}
	}
	return nil
}

// Reduction returns the fraction of the downtime window pipelining
// removed (sequential vs pipelined).
func (r *DowntimeResult) Reduction() float64 {
	seq, pip := r.Row("sequential"), r.Row("pipelined")
	if seq == nil || pip == nil || seq.Downtime == 0 {
		return 0
	}
	return 1 - float64(pip.Downtime)/float64(seq.Downtime)
}

func (s Scale) downtimeBlobs() (count, size int) {
	if s == Full {
		return 1024, 16384
	}
	return 256, 8192
}

// downtimeVersion builds a version whose startup allocates `blobs` opaque
// buffers of `size` bytes, chained by a hidden pointer at word 0 and
// rooted in the "anchor" global. Few large opaque objects make the
// conservative phases (analysis, discovery) the downtime bottleneck —
// exactly the work the pipelined engine takes off the critical path.
func downtimeVersion(seq, blobs, size int) *program.Version {
	return &program.Version{
		Program:     "downtimeheap",
		Release:     fmt.Sprintf("v%d", seq+1),
		Seq:         seq,
		Types:       types.NewRegistry(),
		Globals:     []program.GlobalSpec{{Name: "anchor", Size: 64}},
		Annotations: program.NewAnnotations(),
		Main: func(t *program.Thread) error {
			t.Enter("main")
			defer t.Exit()
			if err := t.Call("downtime_init", func() error {
				p := t.Proc()
				fill := bytes.Repeat([]byte{0xA5}, size)
				var first, last *mem.Object
				for i := 0; i < blobs; i++ {
					b, err := t.MallocBytes(uint64(size))
					if err != nil {
						return err
					}
					if err := p.WriteBytes(b, 0, fill); err != nil {
						return err
					}
					if last != nil {
						if err := p.WriteWordAt(last, 0, uint64(b.Addr)); err != nil {
							return err
						}
					} else {
						first = b
					}
					last = b
				}
				return p.WriteWordAt(p.MustGlobal("anchor"), 0, uint64(first.Addr))
			}); err != nil {
				return err
			}
			return t.Loop("downtime_loop", func() error {
				if err := t.IdleQP("idle@downtime_loop"); err != nil {
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

// dirtyWholeHeap rewrites the payload of every heap object (everything
// past the link word) with a deterministic pattern, making the entire
// heap post-startup state both runs must transfer identically. Top bits
// stay set so no payload word aliases a mapped address.
func dirtyWholeHeap(p *program.Proc) error {
	i := 0
	for _, o := range p.Index().All() {
		if o.Kind != mem.ObjHeap || o.Size <= 16 || o.Scratch {
			continue
		}
		payload := make([]byte, o.Size-8)
		for j := range payload {
			payload[j] = 0x80 | byte((i*7+j)&0x7f)
		}
		if err := p.Space().WriteAt(o.Addr+8, payload); err != nil {
			return err
		}
		i++
	}
	return nil
}

// stateSum hashes the instance's entire object universe — identity and
// contents, in canonical address order — so two updates can be compared
// bit for bit without holding both instances alive.
func stateSum(inst *program.Instance) (uint64, error) {
	return trace.StateDigest(inst)
}

// downtimeMode selects one row of the ablation.
type downtimeMode struct {
	name       string
	sequential bool
	warm       bool
}

// downtimeRun measures one mode: launch, dirty the whole heap
// (post-startup working set), update with pre-copy and the transfer
// checksum armed, and record the report breakdown plus both digests.
func downtimeRun(cfg Config, m downtimeMode, blobs, size int) (DowntimeRow, error) {
	k := kernel.New()
	opts := core.Options{
		Sequential: m.sequential,
		Transfer: core.TransferOptions{
			Parallelism:    cfg.Parallelism,
			VerifyTransfer: true,
		},
		QuiesceTimeout: 30 * time.Second,
		StartupTimeout: 30 * time.Second,
	}
	if m.warm {
		opts.Warm = core.WarmOptions{Enabled: true, Interval: 200 * time.Microsecond}
	} else {
		opts.Precopy = core.PrecopyOptions{Enabled: true}
	}
	e, err := core.NewEngine(k, opts)
	if err != nil {
		return DowntimeRow{}, err
	}
	if _, err := e.Launch(downtimeVersion(0, blobs, size)); err != nil {
		return DowntimeRow{}, err
	}
	defer e.Shutdown()
	if err := dirtyWholeHeap(e.Current().Root()); err != nil {
		return DowntimeRow{}, err
	}
	if m.warm && !e.WarmWait(10*time.Second) {
		return DowntimeRow{}, fmt.Errorf("downtime: warm daemon did not converge")
	}
	rep, err := e.Update(downtimeVersion(1, blobs, size))
	if err != nil {
		return DowntimeRow{}, err
	}
	row, err := downtimeRowOf(m.name, e.Current(), rep)
	row.Sequential = m.sequential
	return row, err
}

// downtimeRowOf records one committed update: its report breakdown and the
// whole-state digest of the instance it committed to.
func downtimeRowOf(name string, cur *program.Instance, rep *core.UpdateReport) (DowntimeRow, error) {
	sum, err := stateSum(cur)
	if err != nil {
		return DowntimeRow{}, err
	}
	return DowntimeRow{
		Name:               name,
		Quiesce:            rep.QuiesceTime,
		Analysis:           rep.AnalysisTime,
		ControlMigration:   rep.ControlMigrationTime,
		Discovery:          rep.DiscoveryTime,
		StateTransfer:      rep.StateTransferTime,
		Downtime:           rep.Downtime,
		Total:              rep.TotalTime,
		AnalysesReused:     rep.AnalysesReused,
		ProcsReanalyzed:    rep.ProcsReanalyzed,
		ObjectsTransferred: rep.Transfer.ObjectsTransferred,
		BytesTransferred:   rep.Transfer.BytesTransferred,
		ShadowFraction:     rep.Transfer.ShadowFraction(),
		StateSum:           sum,
		Checksum:           rep.Transfer.Checksum,
	}, nil
}

// downtimeLiveRun measures the live-traffic row: an httpd update while a
// sustained closed-loop workload drives the server. The workload's
// requests block across the quiesce and complete after commit — none may
// fail or come back malformed.
func downtimeLiveRun(cfg Config) (DowntimeRow, error) {
	spec, err := servers.SpecByName("httpd")
	if err != nil {
		return DowntimeRow{}, err
	}
	e, k, err := launchServer(spec, cfg, core.Options{
		Transfer:       core.TransferOptions{VerifyTransfer: true},
		QuiesceTimeout: 30 * time.Second,
		StartupTimeout: 30 * time.Second,
	})
	if err != nil {
		return DowntimeRow{}, err
	}
	defer e.Shutdown()
	drv, err := workload.StartSustained(k, workload.SustainedOptions{
		Server: spec.Name, Port: spec.Port, Clients: 4,
	})
	if err != nil {
		return DowntimeRow{}, err
	}
	time.Sleep(20 * time.Millisecond) // let traffic establish before the update
	rep, err := e.Update(spec.Version(1))
	stats := drv.Stop()
	if err != nil {
		return DowntimeRow{}, err
	}
	row, err := downtimeRowOf("live", e.Current(), rep)
	row.LiveRequests = stats.Requests
	row.FailedResponses = stats.Errors + stats.BadResponses
	return row, err
}

// RunDowntime regenerates the downtime ablation. Acceptance bars:
//
//   - the quiesce->commit window shrinks by >= 25% with pipelining at
//     default settings;
//   - the three engine rows (sequential, pipelined, warm) transfer
//     bit-identical state — equal whole-state digests AND equal
//     transfer-stream FNV checksums — so the engine choice is a pure
//     mechanism ablation;
//   - the live-traffic row completes every client request.
func RunDowntime(cfg Config) (*DowntimeResult, error) {
	blobs, size := cfg.Scale.downtimeBlobs()
	res := &DowntimeResult{
		Objects:    blobs,
		HeapBytes:  uint64(blobs) * uint64(size),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	modes := []downtimeMode{
		{name: "sequential", sequential: true},
		{name: "pipelined"},
		{name: "warm", warm: true},
	}
	for _, m := range modes {
		row, err := downtimeRun(cfg, m, blobs, size)
		if err != nil {
			return nil, fmt.Errorf("downtime (%s): %w", m.name, err)
		}
		res.Rows = append(res.Rows, row)
	}
	live, err := downtimeLiveRun(cfg)
	if err != nil {
		return nil, fmt.Errorf("downtime (live): %w", err)
	}
	res.Rows = append(res.Rows, live)

	base := res.Row("sequential")
	for _, name := range []string{"pipelined", "warm"} {
		row := res.Row(name)
		if row.StateSum != base.StateSum {
			return nil, fmt.Errorf("experiments: %s changed the transferred state: sum %#x vs %#x",
				name, row.StateSum, base.StateSum)
		}
		if row.Checksum != base.Checksum {
			return nil, fmt.Errorf("experiments: %s changed the transfer stream: checksum %#x vs %#x",
				name, row.Checksum, base.Checksum)
		}
	}
	if live.FailedResponses != 0 {
		return nil, fmt.Errorf("experiments: live-traffic update failed %d of %d responses",
			live.FailedResponses, live.LiveRequests)
	}
	return res, nil
}

// Render formats the downtime breakdown side by side.
func (r *DowntimeResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pipelined update engine: downtime (quiesce->commit) breakdown (%d objects, %d heap bytes, GOMAXPROCS=%d)\n",
		r.Objects, r.HeapBytes, r.GOMAXPROCS)
	fmt.Fprintf(&b, "%-17s %10s %10s %10s %10s %10s %12s %8s\n",
		"engine", "quiesce", "analysis", "restart", "discovery", "copy", "downtime", "reused")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-17s %10s %10s %10s %10s %10s %12s %5d/%-2d\n",
			row.Name,
			row.Quiesce.Round(10*time.Microsecond),
			row.Analysis.Round(10*time.Microsecond),
			row.ControlMigration.Round(10*time.Microsecond),
			row.Discovery.Round(10*time.Microsecond),
			row.StateTransfer.Round(10*time.Microsecond),
			row.Downtime.Round(10*time.Microsecond),
			row.AnalysesReused, row.AnalysesReused+row.ProcsReanalyzed)
	}
	fmt.Fprintf(&b, "downtime reduction: %.0f%% (target >= 25%%); transfer bit-identical across engines (sum %#x, fnv %#x)\n",
		r.Reduction()*100, r.Row("sequential").StateSum, r.Row("sequential").Checksum)
	if live := r.Row("live"); live != nil {
		fmt.Fprintf(&b, "live traffic: %d requests across the update, %d failed\n",
			live.LiveRequests, live.FailedResponses)
	}
	b.WriteString("pipelined overlaps: analysis speculated before quiesce (validated by memory deltas);\n")
	b.WriteString("handoff epoch + discovery run under RESTART; REMAP pairs at startup completion\n")
	return b.String()
}
