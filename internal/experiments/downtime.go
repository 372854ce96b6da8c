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
// wall clock and its phase breakdown, the transfer outcome (including the
// zero-copy adoption columns), and two checksums — the whole-state digest
// and the transfer stream's FNV digest — that pin every mode bit-identical.
type DowntimeRow struct {
	Name       string
	Sequential bool
	Adopt      bool

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

	// Zero-copy adoption outcome: whole page frames moved instead of
	// copied, the bytes they carried, and their fraction of the
	// transferred bytes.
	AdoptedPages     int
	AdoptedBytes     uint64
	AdoptionFraction float64

	// StateSum digests the new instance's entire object universe after
	// the update; Checksum is the transfer's own FNV-64a stream digest
	// (VerifyTransfer is armed on every row, so adopted pages are
	// digested too, before their frames move).
	StateSum uint64
	Checksum uint64

	// Live-traffic rows only: requests completed across the update and
	// the failed-response count (errors + protocol-bad responses), which
	// must be zero — adoption must not cut a request off.
	LiveRequests    int
	FailedResponses int
}

// DowntimeResult is the downtime ablation: the same update measured across
// engine modes — sequential, pipelined, pipelined with zero-copy adoption,
// warm standby with adoption — plus a type-changing control (adoption must
// refuse) and a live-traffic httpd row (adoption must not drop requests).
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
// removed (sequential vs pipelined, both without adoption).
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
// exactly the work the pipelined engine takes off the critical path — and,
// being startup allocations recreated at identical addresses, the whole
// heap is page-adoptable under the identity-remap rule.
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

// typedDowntimeVersion builds the type-changing control: startup allocates
// `recs` precisely-typed records (a pointer chain plus a scalar payload).
// From seq 1 on the record type grows a trailing field, so every record
// pairs with a transformation — the adoption pass must classify zero pages
// adoptable and fall back to the transforming copy path wholesale.
func typedDowntimeVersion(seq, recs int) *program.Version {
	reg := types.NewRegistry()
	rec := &types.Type{Name: "rec_s", Kind: types.KindStruct}
	rec.Fields = []types.Field{
		{Name: "next", Offset: 0, Type: types.PointerTo(rec)},
		{Name: "seq", Offset: 8, Type: types.Scalar(types.KindUint64)},
		{Name: "payload", Offset: 16, Type: types.ArrayOf(48, types.Scalar(types.KindUint32))},
	}
	rec.Size, rec.Align = 208, 8
	if seq > 0 {
		rec.Fields = append(rec.Fields, types.Field{
			Name: "extra", Offset: 208, Type: types.Scalar(types.KindUint64)})
		rec.Size = 216
	}
	reg.Define(rec)
	// The chain head must be a precisely-typed pointer: an untyped anchor
	// would be scanned conservatively, and the likely pointer it holds
	// would freeze the first record as nonupdatable — blocking the very
	// transformation this control exists to exercise.
	anchor := &types.Type{Name: "anchor_s", Kind: types.KindStruct}
	anchor.Fields = []types.Field{{Name: "head", Offset: 0, Type: types.PointerTo(rec)}}
	anchor.Size, anchor.Align = 64, 8
	reg.Define(anchor)
	return &program.Version{
		Program:     "downtimetyped",
		Release:     fmt.Sprintf("v%d", seq+1),
		Seq:         seq,
		Types:       reg,
		Globals:     []program.GlobalSpec{{Name: "anchor", Type: "anchor_s", Size: 64}},
		Annotations: program.NewAnnotations(),
		Main: func(t *program.Thread) error {
			t.Enter("main")
			defer t.Exit()
			if err := t.Call("typed_init", func() error {
				p := t.Proc()
				var first, last *mem.Object
				for i := 0; i < recs; i++ {
					r, err := t.Malloc("rec_s")
					if err != nil {
						return err
					}
					if err := p.WriteField(r, "seq", uint64(i)); err != nil {
						return err
					}
					if last != nil {
						if err := p.SetPtr(last, "next", r); err != nil {
							return err
						}
					} else {
						first = r
					}
					last = r
				}
				return p.WriteWordAt(p.MustGlobal("anchor"), 0, uint64(first.Addr))
			}); err != nil {
				return err
			}
			return t.Loop("typed_loop", func() error {
				if err := t.IdleQP("idle@typed_loop"); err != nil {
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
	adopt      bool
	warm       bool
	typed      bool // type-changing version pair (the adoption refusal control)
}

func (m downtimeMode) version(seq, blobs, size int) *program.Version {
	if m.typed {
		return typedDowntimeVersion(seq, blobs)
	}
	return downtimeVersion(seq, blobs, size)
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
			Adopt:          m.adopt,
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
	if _, err := e.Launch(m.version(0, blobs, size)); err != nil {
		return DowntimeRow{}, err
	}
	defer e.Shutdown()
	if err := dirtyWholeHeap(e.Current().Root()); err != nil {
		return DowntimeRow{}, err
	}
	if m.warm && !e.WarmWait(10*time.Second) {
		return DowntimeRow{}, fmt.Errorf("downtime: warm daemon did not converge")
	}
	rep, err := e.Update(m.version(1, blobs, size))
	if err != nil {
		return DowntimeRow{}, err
	}
	sum, err := stateSum(e.Current())
	if err != nil {
		return DowntimeRow{}, err
	}
	return DowntimeRow{
		Name:               m.name,
		Sequential:         m.sequential,
		Adopt:              m.adopt,
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
		AdoptedPages:       rep.Transfer.PagesAdopted,
		AdoptedBytes:       rep.Transfer.BytesAdopted,
		AdoptionFraction:   rep.Transfer.AdoptionFraction(),
		StateSum:           sum,
		Checksum:           rep.Transfer.Checksum,
	}, nil
}

// downtimeLiveRun measures the live-traffic row: an httpd update with
// adoption armed while a sustained closed-loop workload drives the server.
// The workload's requests block across the quiesce and complete after
// commit — none may fail or come back malformed.
func downtimeLiveRun(cfg Config) (DowntimeRow, error) {
	spec, err := servers.SpecByName("httpd")
	if err != nil {
		return DowntimeRow{}, err
	}
	e, k, err := launchServer(spec, cfg, core.Options{
		Transfer:       core.TransferOptions{Adopt: true, VerifyTransfer: true},
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
	sum, err := stateSum(e.Current())
	if err != nil {
		return DowntimeRow{}, err
	}
	return DowntimeRow{
		Name:               "live+adopt",
		Adopt:              true,
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
		AdoptedPages:       rep.Transfer.PagesAdopted,
		AdoptedBytes:       rep.Transfer.BytesAdopted,
		AdoptionFraction:   rep.Transfer.AdoptionFraction(),
		StateSum:           sum,
		Checksum:           rep.Transfer.Checksum,
		LiveRequests:       stats.Requests,
		FailedResponses:    stats.Errors + stats.BadResponses,
	}, nil
}

// RunDowntime regenerates the downtime ablation. Acceptance bars:
//
//   - the quiesce->commit window shrinks by >= 25% with pipelining at
//     default settings;
//   - the four layout-identical rows (sequential, pipelined,
//     pipelined+adopt, warm+adopt) transfer bit-identical state — equal
//     whole-state digests AND equal transfer-stream FNV checksums — so
//     adoption and the engine choice are pure mechanism ablations;
//   - the adoption rows move >= 90% of transferred bytes by page
//     adoption; the type-changing control adopts nothing;
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
		{name: "pipelined+adopt", adopt: true},
		{name: "warm+adopt", adopt: true, warm: true},
		{name: "typechange+adopt", adopt: true, typed: true},
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
		return nil, fmt.Errorf("downtime (live+adopt): %w", err)
	}
	res.Rows = append(res.Rows, live)

	base := res.Row("sequential")
	for _, name := range []string{"pipelined", "pipelined+adopt", "warm+adopt"} {
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
	for _, name := range []string{"pipelined+adopt", "warm+adopt"} {
		if f := res.Row(name).AdoptionFraction; f < 0.9 {
			return nil, fmt.Errorf("experiments: %s adopted only %.0f%% of transferred bytes (want >= 90%%)",
				name, f*100)
		}
	}
	if tc := res.Row("typechange+adopt"); tc.AdoptedPages != 0 || tc.AdoptedBytes != 0 {
		return nil, fmt.Errorf("experiments: type-changing update adopted %d pages (%d bytes); adoption must refuse",
			tc.AdoptedPages, tc.AdoptedBytes)
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
	fmt.Fprintf(&b, "%-17s %10s %10s %10s %10s %10s %12s %8s %8s\n",
		"engine", "quiesce", "analysis", "restart", "discovery", "copy", "downtime", "adopted", "reused")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-17s %10s %10s %10s %10s %10s %12s %7.0f%% %5d/%-2d\n",
			row.Name,
			row.Quiesce.Round(10*time.Microsecond),
			row.Analysis.Round(10*time.Microsecond),
			row.ControlMigration.Round(10*time.Microsecond),
			row.Discovery.Round(10*time.Microsecond),
			row.StateTransfer.Round(10*time.Microsecond),
			row.Downtime.Round(10*time.Microsecond),
			row.AdoptionFraction*100,
			row.AnalysesReused, row.AnalysesReused+row.ProcsReanalyzed)
	}
	fmt.Fprintf(&b, "downtime reduction: %.0f%% (target >= 25%%); transfer bit-identical across engines and adoption (sum %#x, fnv %#x)\n",
		r.Reduction()*100, r.Row("sequential").StateSum, r.Row("sequential").Checksum)
	if live := r.Row("live+adopt"); live != nil {
		fmt.Fprintf(&b, "live traffic: %d requests across the update, %d failed\n",
			live.LiveRequests, live.FailedResponses)
	}
	b.WriteString("pipelined overlaps: analysis speculated before quiesce (validated by memory deltas);\n")
	b.WriteString("handoff epoch + discovery run under RESTART; REMAP pairs at startup completion;\n")
	b.WriteString("adoption moves layout-identical page frames instead of copying them\n")
	return b.String()
}
