package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/types"
)

// heap-scan shape: a root process plus heapChildren forked children,
// each building a chain of heapBlobs opaque blobs of heapBlobSize bytes
// (8 MiB in all). Before each update heapDirtyDiv-th of every process's
// blobs is rewritten.
const (
	heapChildren = 3
	heapBlobs    = 256
	heapBlobSize = 8192
	heapDirtyDiv = 4
	heapFill     = 0xA5 // startup payload byte; top bit set like every payload byte
)

// heapScanVersion is release seq of the synthetic server. Every release
// has the same layout, so each update is code-only. The root forks its
// children first, then every process builds its own chain, linked
// through a hidden pointer in word 0 of each blob and rooted in the
// "anchor" global. Startup is deterministic, so the new release rebuilds
// every blob at the same address.
func heapScanVersion(seq int) *program.Version {
	build := func(t *program.Thread) error {
		p := t.Proc()
		fill := bytes.Repeat([]byte{heapFill}, heapBlobSize)
		var first, last *mem.Object
		for i := 0; i < heapBlobs; i++ {
			b, err := t.MallocBytes(heapBlobSize)
			if err != nil {
				return err
			}
			if err := p.WriteBytes(b, 0, fill); err != nil {
				return err
			}
			if last == nil {
				first = b
			} else if err := p.WriteWordAt(last, 0, uint64(b.Addr)); err != nil {
				return err
			}
			last = b
		}
		if err := p.WriteWordAt(last, 0, 0); err != nil {
			return err
		}
		return p.WriteWordAt(p.MustGlobal("anchor"), 0, uint64(first.Addr))
	}
	idle := func(t *program.Thread) error {
		return t.Loop("heapscan_loop", func() error {
			if err := t.IdleQP("idle@heapscan_loop"); err != nil {
				if errors.Is(err, program.ErrStopped) {
					return program.ErrLoopExit
				}
				return err
			}
			return nil
		})
	}
	return &program.Version{
		Program:     "heapscan",
		Release:     fmt.Sprintf("v%d", seq+1),
		Seq:         seq,
		Types:       types.NewRegistry(),
		Globals:     []program.GlobalSpec{{Name: "anchor", Size: 64}},
		Annotations: program.NewAnnotations(),
		Main: func(t *program.Thread) error {
			t.Enter("main")
			defer t.Exit()
			for c := 0; c < heapChildren; c++ {
				name := fmt.Sprintf("child_%d", c)
				if _, err := t.ForkProc(name, func(ct *program.Thread) error {
					ct.Enter(name)
					defer ct.Exit()
					if err := ct.Call(name+"_init", func() error { return build(ct) }); err != nil {
						return err
					}
					return idle(ct)
				}); err != nil {
					return err
				}
			}
			if err := t.Call("root_init", func() error { return build(t) }); err != nil {
				return err
			}
			return idle(t)
		},
	}
}

// heapScan runs layout-identical updates back to back with no client
// traffic; before each one it rewrites a seeded quarter of every
// process's blob payloads and after each commit reads every blob back.
type heapScan struct {
	// want holds, per process (by key) and blob, the key of the payload
	// last written there; 0 is the startup fill.
	want map[program.ProcKey][]uint64
}

func newHeapScan() scenario { return &heapScan{} }

func (h *heapScan) gap() time.Duration { return 0 }

func (h *heapScan) start(p *phase) error {
	opts := core.DefaultOptions()
	opts.Precopy.Enabled = true
	p.kern = kernel.New()
	eng, err := core.NewEngine(p.kern, opts)
	if err != nil {
		return err
	}
	p.eng = eng
	inst, err := eng.Launch(heapScanVersion(0))
	if err != nil {
		return err
	}
	h.want = make(map[program.ProcKey][]uint64)
	for _, pr := range inst.Procs() {
		h.want[pr.Key()] = make([]uint64, heapBlobs)
	}
	if len(h.want) != heapChildren+1 {
		return fmt.Errorf("heap-scan launched %d processes, want %d", len(h.want), heapChildren+1)
	}
	return nil
}

// next rewrites a seed-chosen quarter of every process's blobs, payload
// only (word 0 keeps the chain), with the top bit of every byte set so
// no payload word aliases an address.
func (h *heapScan) next(p *phase, u *updateRec) (*program.Version, error) {
	err := p.tr.timed("mem", "AddressSpace.WriteAt", u.span, u.i, func() error {
		inst := p.eng.Current()
		buf := make([]byte, heapBlobSize-8)
		for _, pr := range inst.Procs() {
			addrs, err := chain(pr)
			if err != nil {
				return err
			}
			want := h.want[pr.Key()]
			for _, b := range p.rng.Perm(heapBlobs)[:heapBlobs/heapDirtyDiv] {
				key := p.rng.Uint64() | 1
				payload(buf, key)
				if err := pr.Space().WriteAt(addrs[b]+8, buf); err != nil {
					return err
				}
				want[b] = key
			}
		}
		return nil
	})
	return heapScanVersion(u.fromSeq + 1), err
}

// check reads every blob of every process back after a commit and
// compares it with the bytes written (outside the timed window).
func (h *heapScan) check(p *phase, u *updateRec) error {
	if !u.committed() {
		return nil
	}
	return p.tr.timed("mem", "AddressSpace.ReadAt", u.span, u.i, func() error {
		procs := p.eng.Current().Procs()
		if len(procs) != len(h.want) {
			return fmt.Errorf("heap-scan: %d processes after commit, want %d", len(procs), len(h.want))
		}
		got := make([]byte, heapBlobSize)
		exp := make([]byte, heapBlobSize-8)
		for _, pr := range procs {
			want, ok := h.want[pr.Key()]
			if !ok {
				return fmt.Errorf("heap-scan: unexpected process %s", pr.Key())
			}
			addrs, err := chain(pr)
			if err != nil {
				return err
			}
			for b, a := range addrs {
				if err := pr.Space().ReadAt(a, got); err != nil {
					return err
				}
				payload(exp, want[b])
				if !bytes.Equal(got[8:], exp) {
					return fmt.Errorf("heap-scan: %s blob %d payload differs after update", pr.Key(), b)
				}
			}
		}
		return nil
	})
}

// chain walks a process's blob chain from the anchor global.
func chain(pr *program.Proc) ([]mem.Addr, error) {
	as := pr.Space()
	next, err := as.ReadWord(pr.MustGlobal("anchor").Addr)
	if err != nil {
		return nil, err
	}
	addrs := make([]mem.Addr, 0, heapBlobs)
	for next != 0 {
		if len(addrs) == heapBlobs {
			return nil, fmt.Errorf("heap-scan: %s chain longer than %d blobs", pr.Key(), heapBlobs)
		}
		addrs = append(addrs, mem.Addr(next))
		if next, err = as.ReadWord(mem.Addr(next)); err != nil {
			return nil, err
		}
	}
	if len(addrs) != heapBlobs {
		return nil, fmt.Errorf("heap-scan: %s chain has %d blobs, want %d", pr.Key(), len(addrs), heapBlobs)
	}
	return addrs, nil
}

// payload fills buf with the payload generated from key (splitmix64),
// every byte with its top bit set; key 0 is the startup fill.
func payload(buf []byte, key uint64) {
	if key == 0 {
		for i := range buf {
			buf[i] = heapFill
		}
		return
	}
	x := key
	for i := 0; i+8 <= len(buf); i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		binary.LittleEndian.PutUint64(buf[i:], z|0x8080808080808080)
	}
}
