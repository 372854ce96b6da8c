package mem

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// randomIndex fills an index with n disjoint objects of mixed sizes —
// sub-page records, page-straddling buffers and the occasional empty
// object — separated by random gaps, starting at base.
func randomIndex(t testing.TB, rnd *rand.Rand, base Addr, n int) (*ObjectIndex, []*Object) {
	t.Helper()
	ix := NewObjectIndex()
	var objs []*Object
	a := base
	for i := 0; i < n; i++ {
		a += Addr(8 + 8*rnd.Intn(64))
		var size uint64
		switch rnd.Intn(8) {
		case 0:
			size = 0
		case 1:
			size = uint64(PageSize + rnd.Intn(3*PageSize))
		default:
			size = uint64(8 + 8*rnd.Intn(64))
		}
		o := &Object{Addr: a, Size: size, Kind: ObjHeap}
		if err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
		a += Addr(size)
	}
	return ix, objs
}

// probes returns addresses around every object boundary plus random
// words across (and beyond) the index's span.
func probes(rnd *rand.Rand, objs []*Object, lo, hi Addr) []Addr {
	var out []Addr
	for _, o := range objs {
		out = append(out, o.Addr-1, o.Addr, o.Addr+1, o.End()-1, o.End(), o.End()+1)
	}
	for i := 0; i < 2000; i++ {
		out = append(out, lo-Addr(PageSize)+Addr(rnd.Int63n(int64(hi-lo)+2*PageSize)))
	}
	return append(out, 0, ^Addr(0))
}

// checkTable asserts that tab is exactly the index's current state: the
// same generation, every live object in address order, and lock-free
// Containing answers identical to the locked page-bucket lookup.
func checkTable(t *testing.T, ix *ObjectIndex, tab *ObjectTable, probe []Addr) {
	t.Helper()
	if tab.gen != ix.Gen() {
		t.Fatalf("table generation %d, index at %d", tab.gen, ix.Gen())
	}
	ix.mu.RLock()
	want := make([]*Object, 0, len(ix.byStart))
	for _, o := range ix.byStart {
		want = append(want, o)
	}
	ix.mu.RUnlock()
	sort.Slice(want, func(i, j int) bool { return want[i].Addr < want[j].Addr })
	got := tab.Objects()
	if len(got) != len(want) {
		t.Fatalf("table holds %d objects, index %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("table object %d = %s, want %s", i, got[i], want[i])
		}
	}
	for _, a := range probe {
		want, wantOK := ix.Containing(a)
		got, gotOK := tab.Containing(a)
		if got != want || gotOK != wantOK {
			t.Fatalf("Containing(%#x): table (%v, %v), index (%v, %v)", a, got, gotOK, want, wantOK)
		}
	}
}

func TestObjectTableMatchesIndex(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		ix, objs := randomIndex(t, rnd, 0x10000, 1+rnd.Intn(300))
		tab := ix.Table()
		checkTable(t, ix, tab, probes(rnd, objs, 0x10000, objs[len(objs)-1].End()))
		if ix.Table() != tab {
			t.Fatal("unchanged index rebuilt its table")
		}
		all := ix.All()
		all[0] = nil // the caller owns All's slice
		if tab.Objects()[0] == nil {
			t.Fatal("All shares the table's backing array")
		}
	}
}

func TestObjectTableEmpty(t *testing.T) {
	tab := NewObjectIndex().Table()
	for _, a := range []Addr{0, 1, 0x10000, ^Addr(0)} {
		if o, ok := tab.Containing(a); ok {
			t.Fatalf("empty table contains %#x: %s", a, o)
		}
	}
	if len(tab.Objects()) != 0 {
		t.Fatal("empty table not empty")
	}
}

// TestObjectTableNeverStale interleaves random Inserts and Removes with
// table reads: after every mutation Table serves a table of the new
// generation, never the cached one, and a table taken earlier keeps
// answering for its own generation unchanged.
func TestObjectTableNeverStale(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	ix, objs := randomIndex(t, rnd, 0x10000, 64)
	hi := objs[len(objs)-1].End() + 64*PageSize
	for step := 0; step < 400; step++ {
		before := ix.Table()
		snapshot := append([]*Object(nil), before.Objects()...)
		if rnd.Intn(2) == 0 && len(objs) > 0 {
			i := rnd.Intn(len(objs))
			if _, ok := ix.Remove(objs[i].Addr); !ok {
				t.Fatalf("remove %s", objs[i])
			}
			objs = append(objs[:i], objs[i+1:]...)
		} else {
			o := &Object{Addr: hi, Size: uint64(8 + 8*rnd.Intn(600)), Kind: ObjHeap}
			hi = o.End() + Addr(8*rnd.Intn(8))
			if err := ix.Insert(o); err != nil {
				t.Fatal(err)
			}
			objs = append(objs, o)
		}
		after := ix.Table()
		if after == before || after.gen == before.gen {
			t.Fatalf("step %d: a stale table was served after a mutation", step)
		}
		checkTable(t, ix, after, probes(rnd, objs, 0x10000, hi))
		if len(before.Objects()) != len(snapshot) {
			t.Fatalf("step %d: an earlier table changed size", step)
		}
		for i, o := range snapshot {
			if before.Objects()[i] != o {
				t.Fatalf("step %d: an earlier table changed", step)
			}
		}
	}
}

// TestObjectTableConcurrentReaders shares one table between readers while
// a writer keeps mutating the index: readers never see a torn table (run
// under -race, the lock-free lookups must not race the writer).
func TestObjectTableConcurrentReaders(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	ix, objs := randomIndex(t, rnd, 0x10000, 200)
	hi := objs[len(objs)-1].End()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				tab := ix.Table()
				for i := 0; i < 100; i++ {
					a := 0x10000 + Addr(rnd.Int63n(int64(hi-0x10000)))
					if o, ok := tab.Containing(a); ok && !o.Contains(a) {
						t.Errorf("Containing(%#x) returned %s", a, o)
						return
					}
				}
			}
		}(int64(r))
	}
	next := hi + PageSize
	for i := 0; i < 500; i++ {
		o := &Object{Addr: next, Size: 64, Kind: ObjHeap}
		if err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
		next += 128
		if i%2 == 1 {
			ix.Remove(o.Addr)
		}
	}
	close(stop)
	wg.Wait()
}

// benchIndex is a heap-scan sized index (1024 8 KiB blobs) plus the probe
// mix a conservative scan feeds it: mostly payload words that point
// nowhere, some interior pointers.
func benchIndex(b *testing.B) (*ObjectIndex, []Addr) {
	ix := NewObjectIndex()
	const base = Addr(0x2000_0000)
	for i := 0; i < 1024; i++ {
		if err := ix.Insert(&Object{Addr: base + Addr(i)*8224, Size: 8192, Kind: ObjHeap}); err != nil {
			b.Fatal(err)
		}
	}
	rnd := rand.New(rand.NewSource(1))
	words := make([]Addr, 4096)
	for i := range words {
		if i%8 == 0 {
			words[i] = base + Addr(rnd.Int63n(1024*8224))
		} else {
			words[i] = Addr(rnd.Uint64() | 1<<63)
		}
	}
	return ix, words
}

func BenchmarkObjectIndexContaining(b *testing.B) {
	ix, words := benchIndex(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Containing(words[i%len(words)])
	}
}

func BenchmarkObjectTableContaining(b *testing.B) {
	ix, words := benchIndex(b)
	tab := ix.Table()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Containing(words[i%len(words)])
	}
}
