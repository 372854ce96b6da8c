package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/program"
)

// trackedVersion wraps a blobd release so that every process it runs
// registers finalizers on its address space and object index, counting
// them into freed as the garbage collector reclaims them. Those two are
// the bulk of a retired instance (every page and every object record) and
// point at nothing of the instance, so they are freed exactly when the
// whole instance is unreachable. The finalizers cannot go on the
// *program.Instance itself: instance and processes point at each other,
// and the runtime never runs a finalizer on an object inside a cycle.
func trackedVersion(seq int, procs, freed *atomic.Int32) *program.Version {
	v := blobdVersion(seq, 16, 1024)
	main := v.Main
	v.Main = func(t *program.Thread) error {
		p := t.Proc()
		procs.Add(2)
		count := func(any) { freed.Add(1) }
		runtime.SetFinalizer(p.Space(), count)
		runtime.SetFinalizer(p.Index(), count)
		return main(t)
	}
	return v
}

// waitFreed runs the collector until want tracked structures have been
// finalized, or gives up after a few cycles.
func waitFreed(freed *atomic.Int32, want int32) bool {
	for i := 0; i < 20 && freed.Load() < want; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	return freed.Load() >= want
}

// TestRetiredInstanceCollected pins that an engine does not keep retired
// releases alive: once an update has committed away from an instance, or
// rolled back away from a failed new one, nothing the engine or the
// running instance holds still reaches it, so the Go heap stays flat over
// any number of updates.
func TestRetiredInstanceCollected(t *testing.T) {
	t.Run("copy/commit", func(t *testing.T) {
		e, err := NewEngine(kernel.New(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer e.Shutdown()
		var procs, freed atomic.Int32
		if _, err := e.Launch(trackedVersion(0, &procs, &freed)); err != nil {
			t.Fatal(err)
		}
		dirtyBlobPayloads(t, e.Current())
		if _, err := e.Update(blobdVersion(1, 16, 1024)); err != nil {
			t.Fatal(err)
		}
		if !waitFreed(&freed, procs.Load()) {
			t.Fatalf("committed-away instance still reachable: %d of %d tracked structures freed",
				freed.Load(), procs.Load())
		}
	})
	t.Run("copy/rollback", func(t *testing.T) {
		plane := faultinject.New(1)
		opts := DefaultOptions()
		opts.Faults = plane
		e, err := NewEngine(kernel.New(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Shutdown()
		if _, err := e.Launch(blobdVersion(0, 16, 1024)); err != nil {
			t.Fatal(err)
		}
		dirtyBlobPayloads(t, e.Current())
		var procs, freed atomic.Int32
		plane.Arm(faultinject.PointRestartCrash)
		rep, err := e.Update(trackedVersion(1, &procs, &freed))
		if err == nil || !rep.RolledBack {
			t.Fatalf("injected restart crash did not roll back: %v", err)
		}
		if procs.Load() == 0 {
			t.Fatal("the failed release never ran")
		}
		if !waitFreed(&freed, procs.Load()) {
			t.Fatalf("rolled-back instance still reachable: %d of %d tracked structures freed",
				freed.Load(), procs.Load())
		}
		// The survivor keeps serving updates, and retires in turn.
		var procs2, freed2 atomic.Int32
		if _, err := e.Update(trackedVersion(2, &procs2, &freed2)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Update(blobdVersion(3, 16, 1024)); err != nil {
			t.Fatal(err)
		}
		if !waitFreed(&freed2, procs2.Load()) {
			t.Fatalf("instance committed away after a rollback still reachable: %d of %d freed",
				freed2.Load(), procs2.Load())
		}
	})
}
