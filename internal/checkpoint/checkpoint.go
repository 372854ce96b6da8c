// Package checkpoint implements MCR's incremental pre-copy checkpoint
// engine: the new layer between the memory substrate (internal/mem) and
// the transfer engine (internal/trace) that takes state transfer off the
// downtime-critical path.
//
// While the old version keeps serving traffic, a snapshotter repeatedly
// runs pre-copy epochs, live-migration style: each epoch atomically
// reads-and-clears the soft-dirty page bits of every process, maps the
// dirty pages back to the objects overlapping them (mem.ObjectIndex's
// page buckets), and copies those objects into per-process shadow buffers
// keyed by object identity. The epoch loop converges when the dirty rate
// stabilizes (the writable working set has been reached — further epochs
// cannot shrink it) or a bounded epoch count is hit.
//
// At quiescence, the transfer phase consults the checkpoint through two
// queries: EverDirtyPages (the pages whose bits epochs consumed, so the
// dirty-object set stays identical to a no-checkpoint run) and Shadow
// (the pre-copied bytes of one object). An object whose pages carry no
// soft-dirty bit at transfer time was not written after the epoch that
// captured its shadow — the shadow is bit-identical to live memory and
// the downtime copy can skip the locked read of the live address space.
// Downtime therefore scales with the dirty working set, not the heap.
//
// Consumed-bit accounting lives in the address space itself (a per-page
// "consumed" mark set by ReadAndClearSoftDirty): a fork clones it
// together with the data and the soft-dirty bits, so a child created in
// the middle of a pre-copy run stays exactly accountable with no extra
// bookkeeping here. Epochs are speculative: Discard hands every consumed
// bit back (rollback must leave a later, checkpoint-free update attempt
// with the full dirty-since-startup set).
package checkpoint

import (
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/trace"
)

// Options configures a Snapshotter.
type Options struct {
	// MaxEpochs bounds the pre-copy epoch loop (default 8). Pre-copy must
	// terminate even when the write rate never stabilizes.
	MaxEpochs int
	// StableRatio declares convergence when an epoch dirties at least
	// this fraction of the previous epoch's page count (default 0.9):
	// the dirty set has stopped shrinking, so further epochs only burn
	// bandwidth — quiesce now.
	StableRatio float64
	// Interval pauses between epochs so the running version's writes can
	// accumulate (default 0: back-to-back epochs).
	Interval time.Duration
	// NoEpochHistory drops the per-epoch history (Stats.PerEpoch stays
	// empty; the scalar totals still accumulate). The warm-standby daemon
	// sets it: a snapshotter that runs epochs for hours must not grow an
	// unbounded slice that every Stats() copy then drags along.
	NoEpochHistory bool
	// Recorder, when set, receives one flight-recorder span per epoch
	// (dirty-page count attached) on Track. FinalEpoch always emits on
	// the transfer track: the handoff epoch runs in the pipelined
	// engine's old-side goroutine, concurrent with the engine phases.
	Recorder *obs.Recorder
	// Track is the recorder track epoch spans land on (default engine —
	// the in-call pre-copy loop; the warm daemon sets its own track so
	// its epochs nest under pass spans).
	Track string
	// Faults consults the fault-injection plane at the epoch seam
	// (faultinject.PointEpochFail): a firing poisons the snapshotter
	// instead of producing a half-trusted epoch. nil never fires.
	Faults *faultinject.Plane
}

func (o *Options) fill() {
	if o.MaxEpochs <= 0 {
		o.MaxEpochs = 8
	}
	if o.StableRatio <= 0 {
		o.StableRatio = 0.9
	}
	if o.Track == "" {
		o.Track = obs.TrackEngine
	}
}

// EpochStats describes one pre-copy epoch.
type EpochStats struct {
	Epoch         int
	DirtyPages    int
	ObjectsCopied int
	BytesCopied   uint64
}

// Stats summarizes a snapshotter run.
type Stats struct {
	Epochs        int
	Converged     bool // dirty rate stabilized or drained (vs epoch bound hit)
	PagesCopied   int  // dirty pages consumed across all epochs
	ObjectsCopied int  // shadow captures (re-captures included)
	BytesCopied   uint64
	PerEpoch      []EpochStats
	// The handoff epoch every update runs after quiescence (concurrently
	// with the new version's RESTART on the pipelined schedule, after it
	// on the sequential one). Accounted apart
	// from the pre-quiesce loop so the Epochs bound and its per-epoch
	// history keep their meaning.
	FinalRan     bool
	FinalPages   int
	FinalObjects int
	FinalBytes   uint64
}

// Snapshotter is the epoch-based background pre-copier for one running
// (old-version) instance.
type Snapshotter struct {
	inst *program.Instance
	opts Options

	mu        sync.Mutex
	procs     map[program.ProcKey]*ProcShadow
	stats     Stats
	discarded bool
	err       error // poisoned: shadows cannot be trusted (failed epoch / shot daemon pass)
}

// New builds a snapshotter over the running instance. Epochs start when
// Run (or Epoch) is called; the instance keeps serving throughout.
func New(inst *program.Instance, opts Options) *Snapshotter {
	opts.fill()
	return &Snapshotter{
		inst:  inst,
		opts:  opts,
		procs: make(map[program.ProcKey]*ProcShadow),
	}
}

// Run executes pre-copy epochs until convergence or the epoch bound and
// returns the final statistics. Safe to call while the instance's threads
// run: bit reads/clears and object copies synchronize through each
// address space's lock.
func (s *Snapshotter) Run() Stats {
	prev := -1
	for i := 0; i < s.opts.MaxEpochs; i++ {
		es := s.Epoch()
		if es.DirtyPages == 0 {
			s.setConverged()
			break
		}
		if prev >= 0 && float64(es.DirtyPages) >= s.opts.StableRatio*float64(prev) {
			// Dirty rate stabilized: this is the writable working set.
			s.setConverged()
			break
		}
		prev = es.DirtyPages
		if s.opts.Interval > 0 && i+1 < s.opts.MaxEpochs {
			time.Sleep(s.opts.Interval)
		}
	}
	return s.Stats()
}

// Epoch runs one pre-copy epoch over every live process: read-and-clear
// its soft-dirty bits, then shadow the objects overlapping the dirty
// pages.
func (s *Snapshotter) Epoch() EpochStats {
	sp := s.opts.Recorder.Span(s.opts.Track, obs.PhaseEpoch)
	es := s.epoch()
	sp.EndArg("dirty_pages", int64(es.DirtyPages))
	s.mu.Lock()
	s.stats.Epochs++
	es.Epoch = s.stats.Epochs
	s.stats.PagesCopied += es.DirtyPages
	s.stats.ObjectsCopied += es.ObjectsCopied
	s.stats.BytesCopied += es.BytesCopied
	if !s.opts.NoEpochHistory {
		s.stats.PerEpoch = append(s.stats.PerEpoch, es)
	}
	s.mu.Unlock()
	return es
}

// FinalEpoch runs the handoff epoch over the quiesced instance: with no
// thread left running, everything still dirty is consumed and shadowed in
// one pass, after which the entire downtime copy can be served from
// shadows. The pipelined update schedule runs it concurrently with the
// new version's RESTART phase — the residual live copy shrinks while v2
// boots. Recorded in the Final* stats, not the epoch-loop history.
func (s *Snapshotter) FinalEpoch() EpochStats {
	sp := s.opts.Recorder.Span(obs.TrackTransfer, obs.PhaseHandoff)
	es := s.epoch()
	sp.EndArg("dirty_pages", int64(es.DirtyPages))
	s.mu.Lock()
	s.stats.FinalRan = true
	s.stats.FinalPages += es.DirtyPages
	s.stats.FinalObjects += es.ObjectsCopied
	s.stats.FinalBytes += es.BytesCopied
	s.mu.Unlock()
	return es
}

// epoch is the shared pass: consume every process's soft-dirty bits and
// shadow the objects on the consumed pages.
func (s *Snapshotter) epoch() EpochStats {
	es := EpochStats{}
	// Injected epoch failure: the pass dies before consuming anything,
	// and the snapshotter is poisoned — an epoch that failed partway
	// cannot vouch for which shadows are current, so the update that
	// adopts this checkpoint must abort rather than trust them.
	if err := s.opts.Faults.Check(faultinject.PointEpochFail); err != nil {
		s.fail(err)
		return es
	}
	for _, p := range s.inst.Procs() {
		pages := p.Space().ReadAndClearSoftDirty()
		if len(pages) == 0 {
			continue
		}
		ps := s.shadowOf(p)
		if ps == nil {
			// Discarded concurrently — after this epoch's read-and-clear,
			// so Discard's own restore pass ran too early to see these
			// bits. Hand them back here: anything Discard already
			// restored is no longer marked consumed, so this only
			// returns what this epoch just took.
			p.Space().RestoreSoftDirty()
			break
		}
		es.DirtyPages += len(pages)
		for _, o := range p.Index().OnPages(pages) {
			buf := make([]byte, o.Size)
			if err := p.Space().ReadAt(o.Addr, buf); err != nil {
				// Raced with an unmap: the object cannot be shadowed, and
				// its pages stay consumed, so the transfer will take the
				// live path for whatever lives there by then.
				continue
			}
			ps.put(o, buf)
			es.ObjectsCopied++
			es.BytesCopied += o.Size
		}
	}
	return es
}

// Stats returns a snapshot of the accumulated statistics.
func (s *Snapshotter) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.PerEpoch = append([]EpochStats(nil), s.stats.PerEpoch...)
	return out
}

func (s *Snapshotter) setConverged() {
	s.mu.Lock()
	s.stats.Converged = true
	s.mu.Unlock()
}

// fail poisons the snapshotter: the first failure sticks.
func (s *Snapshotter) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Err reports whether the snapshotter is poisoned — some epoch or daemon
// pass failed, so the shadow set's currency can no longer be vouched
// for. An engine adopting a poisoned checkpoint must roll back; Discard
// still restores every consumed bit as usual.
func (s *Snapshotter) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ProcShadow returns the checkpoint state of the process with the given
// key, or nil if the instance has no such process (or the checkpoint was
// discarded). A process the epochs never shadowed still answers: its
// consumed-page set lives in its own address space (inherited through
// fork), and its shadow table is simply empty, so every dirty object
// takes the live path.
func (s *Snapshotter) ProcShadow(key program.ProcKey) *ProcShadow {
	p, ok := s.inst.ProcByKey(key)
	if !ok {
		return nil
	}
	return s.shadowOf(p)
}

// Shadows returns the resolver callers plug into trace.Options.Shadows.
// It exists so every caller gets the typed-nil guard right: ProcShadow
// returns a concrete *ProcShadow, and wrapping a nil one in the
// ShadowReader interface directly would make an unknown process look like
// it has a checkpoint.
func (s *Snapshotter) Shadows() func(program.ProcKey) trace.ShadowReader {
	return func(key program.ProcKey) trace.ShadowReader {
		if ps := s.ProcShadow(key); ps != nil {
			return ps
		}
		return nil
	}
}

func (s *Snapshotter) shadowOf(p *program.Proc) *ProcShadow {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.discarded {
		return nil
	}
	if ps, ok := s.procs[p.Key()]; ok {
		return ps
	}
	ps := &ProcShadow{
		space:   p.Space(),
		shadows: make(map[*mem.Object][]byte),
	}
	s.procs[p.Key()] = ps
	return ps
}

// Discard abandons the checkpoint: every consumed dirty bit is handed
// back to its process's address space (so a subsequent checkpoint-free
// transfer still sees the full dirty-since-startup set) and all shadow
// buffers are released. Called on rollback, and after commit for cleanup
// (restoring bits of a terminated instance is harmless).
func (s *Snapshotter) Discard() {
	s.mu.Lock()
	if s.discarded {
		s.mu.Unlock()
		return
	}
	s.discarded = true
	procs := s.procs
	s.procs = make(map[program.ProcKey]*ProcShadow)
	s.mu.Unlock()
	for _, ps := range procs {
		ps.drop()
	}
	// Restore via the live process list, not the shadow table: a child
	// forked after the last epoch carries inherited consumed bits even
	// though no ProcShadow was ever created for it.
	for _, p := range s.inst.Procs() {
		p.Space().RestoreSoftDirty()
	}
}

// Discarded reports whether Discard has run — i.e. whether every dirty
// bit this snapshotter consumed has been handed back. The canary fault
// tests use it to pin down the consumed-bit restore contract the
// adoptable window relies on.
func (s *Snapshotter) Discarded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.discarded
}

// ProcShadow holds one process's checkpoint state: its address space
// (which carries the consumed-page accounting) and the pre-copied
// contents of the objects that sat on dirty pages, keyed by object
// identity. It satisfies trace.ShadowReader.
type ProcShadow struct {
	space *mem.AddressSpace

	mu      sync.RWMutex
	shadows map[*mem.Object][]byte
}

func (ps *ProcShadow) put(o *mem.Object, buf []byte) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.shadows != nil {
		ps.shadows[o] = buf
	}
}

func (ps *ProcShadow) drop() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.shadows = nil
}

// EverDirtyPages returns, in ascending order, every page whose soft-dirty
// bit a pre-copy epoch read-and-cleared. The transfer unions these with
// the pages still dirty at quiescence to recover the exact dirty set a
// checkpoint-free run would have seen.
func (ps *ProcShadow) EverDirtyPages() []mem.Addr {
	return ps.space.ConsumedDirtyPages()
}

// Shadow returns the pre-copied contents of o from its latest capture.
// The caller must verify currency (no soft-dirty bit on any of o's pages)
// before serving it in place of live memory.
func (ps *ProcShadow) Shadow(o *mem.Object) ([]byte, bool) {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	buf, ok := ps.shadows[o]
	return buf, ok
}

// ShadowObjects returns the number of live shadow captures.
func (ps *ProcShadow) ShadowObjects() int {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	return len(ps.shadows)
}
