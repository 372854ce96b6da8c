package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/types"
)

// blobdVersion mirrors the downtime harness heap at test scale: `blobs`
// untyped buffers chained by a hidden pointer at word 0, rooted in an
// untyped global. Startup allocations are recreated at identical
// addresses, so the update pairs every blob in place.
func blobdVersion(seq, blobs, size int) *program.Version {
	return &program.Version{
		Program:     "blobd",
		Release:     fmt.Sprintf("v%d", seq+1),
		Seq:         seq,
		Types:       types.NewRegistry(),
		Globals:     []program.GlobalSpec{{Name: "anchor", Size: 64}},
		Annotations: program.NewAnnotations(),
		Main: func(t *program.Thread) error {
			t.Enter("main")
			defer t.Exit()
			if err := t.Call("blobd_init", func() error {
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
			return t.Loop("blobd_loop", func() error {
				if err := t.IdleQP("idle@blobd_loop"); err != nil {
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

// dirtyBlobPayloads rewrites every heap object's payload (past the chain
// word) with a deterministic pattern, making the whole heap post-startup
// state the update must transfer. Top bits stay set so no payload word
// aliases a mapped address.
func dirtyBlobPayloads(t *testing.T, inst *program.Instance) {
	t.Helper()
	p := inst.Root()
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
			t.Fatal(err)
		}
		i++
	}
}

// TestCopyDeterminism pins the bit-identity contract of the copy path
// across every scheduling axis: the sequential and pipelined schedules, at
// transfer parallelism 1 and N, under GOMAXPROCS 1 and 4, must all produce
// one FNV source checksum and one post-update state digest on the blobd
// heap.
func TestCopyDeterminism(t *testing.T) {
	const blobs, size = 24, 2048
	type outcome struct{ checksum, digest uint64 }
	run := func(t *testing.T, opts Options) outcome {
		t.Helper()
		e, err := NewEngine(kernel.New(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Launch(blobdVersion(0, blobs, size)); err != nil {
			t.Fatal(err)
		}
		defer e.Shutdown()
		dirtyBlobPayloads(t, e.Current())
		rep, err := e.Update(blobdVersion(1, blobs, size))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Transfer.BytesTransferred < blobs*size || rep.Transfer.Checksum == 0 {
			t.Fatalf("dirty heap not transferred under audit: %+v", rep.Transfer)
		}
		return outcome{checksum: rep.Transfer.Checksum, digest: mustDigest(t, e.Current())}
	}
	var want *outcome
	for _, gmp := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", gmp), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gmp))
			for _, seq := range []bool{true, false} {
				for _, par := range []int{1, 0} {
					got := run(t, Options{Sequential: seq, Transfer: TransferOptions{
						Parallelism: par, VerifyTransfer: true}})
					if want == nil {
						want = &got
						continue
					}
					if got != *want {
						t.Errorf("sequential=%v parallelism=%d: checksum %#x digest %#x, first run %#x / %#x",
							seq, par, got.checksum, got.digest, want.checksum, want.digest)
					}
				}
			}
		})
	}
}
