package mem

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/types"
)

// ObjKind classifies a tracked memory object for Table 2 style accounting.
type ObjKind uint8

// Object kinds.
const (
	ObjHeap ObjKind = iota
	ObjStatic
	ObjLib
	ObjMmap
	ObjStack
)

var objKindNames = [...]string{"heap", "static", "lib", "mmap", "stack"}

func (k ObjKind) String() string {
	if int(k) < len(objKindNames) {
		return objKindNames[k]
	}
	return fmt.Sprintf("obj(%d)", uint8(k))
}

// Object is one tracked memory object: a global variable, a heap
// allocation, a library datum or a stack-resident variable. It carries the
// relocation and data-type tags MCR's instrumentation maintains in-band:
// the type tag (nil for uninstrumented/opaque allocations), the
// allocation-site call-stack ID and per-site ordinal used to match object
// pairs across versions, and the startup flag used by global separability.
type Object struct {
	Addr    Addr
	Size    uint64
	Type    *types.Type // nil: no type tag (uninstrumented)
	Site    uint64      // allocation-site call-stack ID (0 for statics)
	Seq     uint64      // per-site allocation ordinal
	Startup bool        // allocated before startup completed
	Kind    ObjKind
	Name    string // symbol name for statics/libs
	// Scratch marks instrumentation-owned overlay metadata: state the
	// framework regenerates in every version and the program never reads.
	// State transfer never reaches scratch objects, and StateDigest skips
	// them.
	Scratch bool
}

// End returns the first address past the object.
func (o *Object) End() Addr { return o.Addr + Addr(o.Size) }

// Contains reports whether addr points into the object (interior pointers
// included, as conservative GC must accept).
func (o *Object) Contains(addr Addr) bool { return addr >= o.Addr && addr < o.End() }

// String implements fmt.Stringer for diagnostics and conflict reports.
func (o *Object) String() string {
	name := o.Name
	if name == "" {
		name = fmt.Sprintf("site=%#x/%d", o.Site, o.Seq)
	}
	return fmt.Sprintf("%s %s @%#x+%d", o.Kind, name, o.Addr, o.Size)
}

// ObjectIndex tracks live objects and answers the two queries tracing
// needs: exact lookup by start address (precise tracing) and
// containing-object lookup for arbitrary interior addresses (conservative
// likely-pointer validation). The page-bucket index keeps interior lookup
// O(objects-on-page) while objects come and go; scans of a settled index
// use its immutable Table instead, which answers without a lock.
type ObjectIndex struct {
	mu      sync.RWMutex
	byStart map[Addr]*Object
	byPage  map[Addr][]*Object // page base -> objects overlapping the page
	// gen advances on every Insert/Remove: the allocation-delta half of
	// the speculative-analysis validation (AddressSpace.Mutations is the
	// data half).
	gen uint64
	// table caches the sorted snapshot of generation gen; Insert and
	// Remove drop it, and Table rebuilds it on demand.
	table *ObjectTable
}

// ObjectTable is an immutable address-sorted snapshot of an index's live
// objects at one generation. Its lookups take no lock, so any number of
// scanners can share it; it never changes after it is built, and a later
// Insert or Remove makes the index build a new one instead.
type ObjectTable struct {
	gen  uint64
	objs []*Object
	// hits are the non-empty objects and spans[i] is hits[i]'s
	// [start, end), packed for the search. Empty objects contain no
	// address, and Insert lets one sit inside a neighbour, so they are
	// left out of the search.
	hits  []*Object
	spans []span
	// lo and hi bound every object: a word outside [lo, hi) points at no
	// object, which rejects most non-pointer words without a search.
	lo, hi Addr
}

type span struct{ start, end Addr }

// Objects returns the objects sorted by address. The slice is shared by
// every holder of the table and must not be modified.
func (t *ObjectTable) Objects() []*Object { return t.objs }

// Containing returns the object whose range contains addr, accepting
// interior pointers: the lock-free form of ObjectIndex.Containing.
func (t *ObjectTable) Containing(addr Addr) (*Object, bool) {
	if addr < t.lo || addr >= t.hi {
		return nil, false
	}
	// Objects are disjoint, so only the last one starting at or below
	// addr can contain it.
	i, j := 0, len(t.spans)
	for i < j {
		h := int(uint(i+j) >> 1)
		if t.spans[h].start <= addr {
			i = h + 1
		} else {
			j = h
		}
	}
	if i == 0 || addr >= t.spans[i-1].end {
		return nil, false
	}
	return t.hits[i-1], true
}

// NewObjectIndex returns an empty index.
func NewObjectIndex() *ObjectIndex {
	return &ObjectIndex{
		byStart: make(map[Addr]*Object),
		byPage:  make(map[Addr][]*Object),
	}
}

// Insert adds an object. Inserting an object whose range overlaps a live
// object is an error: the allocator guarantees disjointness, so overlap
// means corrupted metadata.
func (ix *ObjectIndex) Insert(o *Object) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, dup := ix.byStart[o.Addr]; dup {
		return fmt.Errorf("mem: object already tracked at %#x", o.Addr)
	}
	for pb := pageBase(o.Addr); pb < o.End(); pb += PageSize {
		for _, other := range ix.byPage[pb] {
			if other.Addr < o.End() && o.Addr < other.End() {
				return fmt.Errorf("mem: object %s overlaps %s", o, other)
			}
		}
	}
	ix.byStart[o.Addr] = o
	for pb := pageBase(o.Addr); pb < o.End(); pb += PageSize {
		ix.byPage[pb] = append(ix.byPage[pb], o)
	}
	ix.gen++
	ix.table = nil
	return nil
}

// Remove drops the object starting at addr and returns it.
func (ix *ObjectIndex) Remove(addr Addr) (*Object, bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	o, ok := ix.byStart[addr]
	if !ok {
		return nil, false
	}
	delete(ix.byStart, addr)
	for pb := pageBase(o.Addr); pb < o.End(); pb += PageSize {
		bucket := ix.byPage[pb]
		for i, other := range bucket {
			if other == o {
				ix.byPage[pb] = append(bucket[:i], bucket[i+1:]...)
				break
			}
		}
		if len(ix.byPage[pb]) == 0 {
			delete(ix.byPage, pb)
		}
	}
	ix.gen++
	ix.table = nil
	return o, true
}

// Gen returns the index generation, advanced by every Insert and Remove.
// Equal readings bracket a span with no allocation or deallocation.
func (ix *ObjectIndex) Gen() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.gen
}

// At returns the object starting exactly at addr.
func (ix *ObjectIndex) At(addr Addr) (*Object, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	o, ok := ix.byStart[addr]
	return o, ok
}

// Containing returns the live object whose range contains addr, accepting
// interior pointers. This is the conservative-GC "is this word a likely
// pointer to a live object?" test.
func (ix *ObjectIndex) Containing(addr Addr) (*Object, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, o := range ix.byPage[pageBase(addr)] {
		if o.Contains(addr) {
			return o, true
		}
	}
	return nil, false
}

// OverlappingRange returns any live object overlapping [start, end).
func (ix *ObjectIndex) OverlappingRange(start, end Addr) (*Object, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for pb := pageBase(start); pb < end; pb += PageSize {
		for _, o := range ix.byPage[pb] {
			if o.Addr < end && start < o.End() {
				return o, true
			}
		}
	}
	return nil, false
}

// Len returns the number of live objects.
func (ix *ObjectIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.byStart)
}

// All returns all live objects sorted by address, as a slice the caller
// owns (a copy of the cached Table's).
func (ix *ObjectIndex) All() []*Object {
	return append([]*Object(nil), ix.Table().objs...)
}

// Table returns the snapshot of the index's current generation, building
// it under one lock the first time it is asked for after an Insert or
// Remove. Scans of an index that does not change (a quiesced instance)
// all share one table.
func (ix *ObjectIndex) Table() *ObjectTable {
	ix.mu.RLock()
	t := ix.table
	ix.mu.RUnlock()
	if t != nil {
		return t
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.table == nil {
		ix.table = ix.buildTableLocked()
	}
	return ix.table
}

func (ix *ObjectIndex) buildTableLocked() *ObjectTable {
	t := &ObjectTable{gen: ix.gen, objs: make([]*Object, 0, len(ix.byStart))}
	for _, o := range ix.byStart {
		t.objs = append(t.objs, o)
	}
	sort.Slice(t.objs, func(i, j int) bool { return t.objs[i].Addr < t.objs[j].Addr })
	t.hits = make([]*Object, 0, len(t.objs))
	t.spans = make([]span, 0, len(t.objs))
	for _, o := range t.objs {
		if o.Size == 0 {
			continue
		}
		t.hits = append(t.hits, o)
		t.spans = append(t.spans, span{o.Addr, o.End()})
	}
	if n := len(t.spans); n > 0 {
		t.lo, t.hi = t.spans[0].start, t.spans[n-1].end
	}
	return t
}

// OnPages returns the distinct live objects overlapping any of the given
// pages (used to turn soft-dirty pages into the dirty object set).
func (ix *ObjectIndex) OnPages(pages []Addr) []*Object {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	seen := make(map[*Object]bool)
	var out []*Object
	for _, pb := range pages {
		for _, o := range ix.byPage[pb] {
			if !seen[o] {
				seen[o] = true
				out = append(out, o)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}
