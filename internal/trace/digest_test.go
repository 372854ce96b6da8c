package trace

import (
	"testing"
	"time"

	"repro/internal/program"
)

// TestStateDigest pins the digest's two contractual properties: it is
// stable across reads of an untouched instance (taking it twice — or
// letting the instance sit quiesced in between, the canary-window case —
// changes nothing), and any byte of drift in any object changes it.
func TestStateDigest(t *testing.T) {
	inst := runV1(t, 3)
	defer inst.Terminate()

	d1, err := StateDigest(inst)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == 0 {
		t.Fatal("zero digest")
	}
	d2, err := StateDigest(inst)
	if err != nil {
		t.Fatal(err)
	}
	if d2 != d1 {
		t.Fatalf("digest not stable: %#x vs %#x", d1, d2)
	}

	// The adoptable-window scenario in miniature: resume, let the server
	// sit idle, re-quiesce — no traffic means no drift.
	inst.Resume()
	time.Sleep(2 * time.Millisecond)
	if _, err := inst.Quiesce(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	d3, err := StateDigest(inst)
	if err != nil {
		t.Fatal(err)
	}
	if d3 != d1 {
		t.Fatalf("idle window drifted state: %#x vs %#x", d1, d3)
	}

	// One-byte mutation must change the digest.
	root := inst.Root()
	objs := root.Index().All()
	if len(objs) == 0 {
		t.Fatal("no objects")
	}
	o := objs[len(objs)/2]
	buf := make([]byte, 1)
	if err := root.Space().ReadAt(o.Addr, buf); err != nil {
		t.Fatal(err)
	}
	if err := root.Space().WriteAt(o.Addr, []byte{buf[0] ^ 0xff}); err != nil {
		t.Fatal(err)
	}
	d4, err := StateDigest(inst)
	if err != nil {
		t.Fatal(err)
	}
	if d4 == d1 {
		t.Fatal("one-byte mutation left the digest unchanged")
	}
}

// TestStateDigestPinned pins the digest value itself on two deterministic
// instances: StateDigest is the bit-identity witness of every rollback
// audit and engine-agreement test, so how it walks or reads the heap must
// never change what it returns.
func TestStateDigestPinned(t *testing.T) {
	cases := []struct {
		name  string
		start func(t *testing.T) *program.Instance
		want  uint64
	}{
		{"figure2-3-events", func(t *testing.T) *program.Instance { return runV1(t, 3) }, 0xd81f1a402f2754d8},
		{"synth-seed7-3-procs", func(t *testing.T) *program.Instance { return startSynthV1(t, randShape(7, 3)) }, 0x5fdc39fa1e6ad643},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inst := c.start(t)
			defer inst.Terminate()
			got, err := StateDigest(inst)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("StateDigest = %#x, want the recorded %#x", got, c.want)
			}
		})
	}
}
