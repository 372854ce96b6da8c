package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/types"
)

// diffVersion declares the types and symbols of the randomized heaps the
// analysis-equivalence test builds: a record with every slot kind the
// policy distinguishes (precise pointer, pointer-sized integer, function
// pointer, union), a mixed record whose char array is an opaque range
// that starts and ends off the word grid, two globals and two libraries.
func diffVersion() *program.Version {
	reg := types.NewRegistry()
	rec := &types.Type{Name: "rec_t", Kind: types.KindStruct}
	u := types.UnionOf("val_u",
		types.Field{Name: "p", Type: types.PointerTo(rec)},
		types.Field{Name: "n", Type: types.Scalar(types.KindInt64)})
	rec.Fields = []types.Field{
		{Name: "next", Offset: 0, Type: types.PointerTo(rec)},
		{Name: "val", Offset: 8, Type: types.Scalar(types.KindInt64)},
		{Name: "hid", Offset: 16, Type: types.Scalar(types.KindUintPtr)},
		{Name: "fn", Offset: 24, Type: types.Scalar(types.KindFuncPtr)},
		{Name: "u", Offset: 32, Type: u},
	}
	rec.Size, rec.Align = 40, 8
	reg.Define(rec)
	reg.Define(types.StructOf("mix_t",
		types.Field{Name: "tag", Type: types.Scalar(types.KindInt8)},
		types.Field{Name: "name", Type: types.ArrayOf(21, types.Scalar(types.KindUint8))},
		types.Field{Name: "p", Type: types.PointerTo(nil)},
		types.Field{Name: "hid", Type: types.Scalar(types.KindUintPtr)},
	))
	return &program.Version{
		Program: "tablediff",
		Release: "v1",
		Types:   reg,
		Globals: []program.GlobalSpec{
			{Name: "g_rec", Type: "rec_t"},
			{Name: "g_blob", Size: 100},
		},
		Libs:        []program.LibSpec{{Name: "libA", StateSize: 520}, {Name: "libB", StateSize: 700}},
		Annotations: program.NewAnnotations(),
		Main:        func(*program.Thread) error { return nil },
	}
}

// newDiffProc builds (without starting) an instance of diffVersion and
// returns its root process, ready to be filled directly.
func newDiffProc(t testing.TB) *program.Proc {
	t.Helper()
	inst, err := program.NewInstance(diffVersion(), kernel.New(), program.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Terminate)
	return inst.Root()
}

// fillDiffHeap allocates a seeded random mix of typed records, small
// blobs and page-straddling buffers, then writes every word of every
// object (globals and library state included): zeroes, payload that
// points nowhere, object starts, interior pointers, words at End()-1 and
// End(), misaligned pointers into typed objects and pointers into the
// libraries.
func fillDiffHeap(t testing.TB, p *program.Proc, seed int64) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	reg := p.Instance().Version().Types
	rec, _ := reg.Lookup("rec_t")
	mix, _ := reg.Lookup("mix_t")
	for i, n := 0, 40+rnd.Intn(120); i < n; i++ {
		var err error
		site := uint64(0x100 + rnd.Intn(4))
		switch rnd.Intn(4) {
		case 0:
			_, err = p.Heap().Alloc(rec.Size, rec, site)
		case 1:
			_, err = p.Heap().Alloc(mix.Size, mix, site)
		case 2:
			_, err = p.Heap().Alloc(uint64(1+rnd.Intn(600)), nil, site)
		default:
			_, err = p.Heap().Alloc(uint64(mem.PageSize/2+rnd.Intn(3*mem.PageSize)), nil, site)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	objs := p.Index().All()
	var libs []*mem.Object
	for _, o := range objs {
		if o.Kind == mem.ObjLib {
			libs = append(libs, o)
		}
	}
	pick := func() *mem.Object { return objs[rnd.Intn(len(objs))] }
	word := func() uint64 {
		o := pick()
		switch rnd.Intn(10) {
		case 0:
			return 0
		case 1:
			return rnd.Uint64() | 1<<63
		case 2:
			return uint64(rnd.Intn(1 << 16))
		case 3:
			return uint64(o.Addr)
		case 4:
			return uint64(o.Addr) + uint64(rnd.Int63n(int64(o.Size)+1))
		case 5:
			return uint64(o.End()) - 1
		case 6:
			return uint64(o.End())
		case 7:
			return uint64(o.Addr) + uint64(1+rnd.Intn(3))
		case 8:
			return uint64(o.Addr) + 4
		default:
			l := libs[rnd.Intn(len(libs))]
			return uint64(l.Addr) + uint64(rnd.Int63n(int64(l.Size)))
		}
	}
	for _, o := range objs {
		buf := make([]byte, o.Size)
		for off := 0; off+8 <= len(buf); off += 8 {
			w := word()
			for b := 0; b < 8; b++ {
				buf[off+b] = byte(w >> (8 * b))
			}
		}
		for off := len(buf) &^ 7; off < len(buf); off++ {
			buf[off] = byte(rnd.Intn(256))
		}
		if err := p.Space().WriteAt(o.Addr, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// refLikely is the reference likely-pointer rule over the locked
// page-bucket index.
func refLikely(ix *mem.ObjectIndex, word uint64) (*mem.Object, bool) {
	if word == 0 {
		return nil, false
	}
	target, ok := ix.Containing(mem.Addr(word))
	if !ok {
		return nil, false
	}
	if target.Type != nil && target.Type.Align > 1 && uint64(mem.Addr(word)-target.Addr)%4 != 0 {
		return nil, false
	}
	return target, true
}

// analyzePerWord is the reference analysis: one locked word read and one
// locked index lookup per scanned word, with no table and no per-object
// buffer — the straightforward reading of §6 the table-based AnalyzeProc
// must agree with exactly.
func analyzePerWord(p *program.Proc, pol types.Policy, transferLibs map[string]bool) (*Analysis, error) {
	an := &Analysis{
		Immutable:    make(map[mem.Addr]*mem.Object),
		Nonupdatable: make(map[mem.Addr]bool),
	}
	ix, as := p.Index(), p.Space()
	for _, o := range ix.All() {
		if o.Kind == mem.ObjLib && !transferLibs[o.Name] {
			continue
		}
		opaques, ptrs := opaqueRangesOf(o, pol)
		for _, slot := range ptrs {
			if slot.Offset+8 > o.Size || slot.Func {
				continue
			}
			word, err := as.ReadWord(o.Addr + mem.Addr(slot.Offset))
			if err != nil {
				return nil, err
			}
			if word == 0 {
				continue
			}
			if target, ok := ix.Containing(mem.Addr(word)); ok {
				an.Stats.Precise.add(o.Kind, target.Kind)
			}
		}
		hasLikely := false
		for _, r := range opaques {
			end := r.Offset + r.Size
			if end > o.Size {
				end = o.Size
			}
			for off := (r.Offset + 7) &^ 7; off+8 <= end; off += 8 {
				word, err := as.ReadWord(o.Addr + mem.Addr(off))
				if err != nil {
					return nil, err
				}
				target, ok := refLikely(ix, word)
				if !ok {
					continue
				}
				hasLikely = true
				an.Stats.Likely.add(o.Kind, target.Kind)
				an.Immutable[target.Addr] = target
				an.Nonupdatable[target.Addr] = true
			}
		}
		if hasLikely {
			an.Nonupdatable[o.Addr] = true
		}
	}
	return an, nil
}

func sameAnalysis(a, b *Analysis) error {
	if len(a.Immutable) != len(b.Immutable) {
		return fmt.Errorf("%d immutable objects, want %d", len(a.Immutable), len(b.Immutable))
	}
	for addr, o := range b.Immutable {
		if a.Immutable[addr] != o {
			return fmt.Errorf("immutable %s missing or a different object", o)
		}
	}
	if !reflect.DeepEqual(a.Nonupdatable, b.Nonupdatable) {
		return fmt.Errorf("nonupdatable sets differ: %d vs %d objects", len(a.Nonupdatable), len(b.Nonupdatable))
	}
	if a.Stats != b.Stats {
		return fmt.Errorf("stats %+v, want %+v", a.Stats, b.Stats)
	}
	return nil
}

// TestAnalyzeProcMatchesPerWordReference checks the table-based analysis
// against the per-word reference on seeded random heaps, under both
// policies, with the libraries in and out of TransferLibs, at GOMAXPROCS
// 1 and 2 — with several analyses sharing one object table concurrently.
func TestAnalyzeProcMatchesPerWordReference(t *testing.T) {
	policies := map[string]types.Policy{"default": types.DefaultPolicy(), "precise": types.FullyPrecisePolicy()}
	libSets := map[string]map[string]bool{"no-libs": nil, "libA": {"libA.state": true}}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for seed := int64(1); seed <= 12; seed++ {
			p := newDiffProc(t)
			fillDiffHeap(t, p, seed)
			for pn, pol := range policies {
				for ln, libs := range libSets {
					want, err := analyzePerWord(p, pol, libs)
					if err != nil {
						t.Fatal(err)
					}
					if want.Stats.Likely.Ptr == 0 || want.Stats.Precise.Ptr == 0 && pn == "precise" {
						t.Fatalf("seed %d %s: degenerate heap (stats %+v)", seed, pn, want.Stats)
					}
					var wg sync.WaitGroup
					errs := make([]error, 3)
					for g := range errs {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							got, err := AnalyzeProc(p, pol, libs)
							if err == nil {
								err = sameAnalysis(got, want)
							}
							errs[g] = err
						}(g)
					}
					wg.Wait()
					for _, err := range errs {
						if err != nil {
							t.Fatalf("GOMAXPROCS=%d seed %d %s %s: %v", procs, seed, pn, ln, err)
						}
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestResolveReanalyzesAfterInsert pins the speculation contract with
// the table: an object inserted after Speculate captured the counters —
// with no byte of memory written, so only the index generation moves —
// must make Resolve re-analyze, because it turns an existing word into a
// likely pointer.
func TestResolveReanalyzesAfterInsert(t *testing.T) {
	p := newDiffProc(t)
	inst := p.Instance()
	pol := types.DefaultPolicy()
	target := program.StaticBase + 4<<20 // mapped, unused static space
	blob := p.MustGlobal("g_blob")
	if err := p.Space().WriteWord(blob.Addr, uint64(target)+16); err != nil {
		t.Fatal(err)
	}
	spec := Speculate(inst, pol, nil)
	spec.Wait()
	before := spec.res[p.Key()].an
	if before.IsImmutable(target) {
		t.Fatal("nothing lives at the target yet")
	}
	muts := p.Space().Mutations()
	o := &mem.Object{Addr: target, Size: 64, Kind: mem.ObjStatic, Name: "late"}
	if err := p.Index().Insert(o); err != nil {
		t.Fatal(err)
	}
	if p.Space().Mutations() != muts {
		t.Fatal("Insert wrote memory; the test wants the index generation alone to move")
	}
	got, reused, err := spec.Resolve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if reused != 0 {
		t.Fatalf("Resolve reused the stale speculative analysis (%d reused)", reused)
	}
	if got[p.Key()].Immutable[target] != o {
		t.Fatal("re-analysis missed the likely pointer to the inserted object")
	}
	want, err := analyzePerWord(p, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAnalysis(got[p.Key()], want); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAnalyzeProc measures the conservative analysis of one process
// holding 2 MiB of opaque blobs (256 × 8 KiB) chained by a hidden pointer
// in word 0, the rest payload that points nowhere: the heap-scan shape.
func BenchmarkAnalyzeProc(b *testing.B) {
	p := newDiffProc(b)
	fill := make([]byte, 8192)
	for i := range fill {
		fill[i] = 0xA5
	}
	var prev *mem.Object
	for i := 0; i < 256; i++ {
		o, err := p.Heap().Alloc(8192, nil, 0x200)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Space().WriteAt(o.Addr, fill); err != nil {
			b.Fatal(err)
		}
		if prev != nil {
			if err := p.Space().WriteWord(prev.Addr, uint64(o.Addr)); err != nil {
				b.Fatal(err)
			}
		}
		prev = o
	}
	pol := types.DefaultPolicy()
	b.SetBytes(256 * 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := AnalyzeProc(p, pol, nil)
		if err != nil {
			b.Fatal(err)
		}
		if an.Stats.Likely.Ptr != 255 {
			b.Fatalf("found %d likely pointers, want the 255 chain links", an.Stats.Likely.Ptr)
		}
	}
}
