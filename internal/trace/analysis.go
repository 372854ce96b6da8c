// Package trace implements mutable tracing (§6): the hybrid
// precise/conservative GC-style traversal that transfers the dirty program
// state from the old version to the new one, relocating and
// type-transforming objects where type information is unambiguous and
// pinning ("immutable") or freezing ("nonupdatable") objects reached
// conservatively.
package trace

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/types"
)

// RegionBreakdown counts pointers by the memory region of their source and
// target, the classification of Table 2 (Static / Dynamic / Lib).
type RegionBreakdown struct {
	Ptr         int // total pointers
	SrcStatic   int
	SrcDynamic  int
	SrcLib      int
	TargStatic  int
	TargDynamic int
	TargLib     int
}

func (b *RegionBreakdown) add(src, targ mem.ObjKind) {
	b.Ptr++
	switch src {
	case mem.ObjStatic, mem.ObjStack:
		b.SrcStatic++
	case mem.ObjHeap, mem.ObjMmap:
		b.SrcDynamic++
	case mem.ObjLib:
		b.SrcLib++
	}
	switch targ {
	case mem.ObjStatic, mem.ObjStack:
		b.TargStatic++
	case mem.ObjHeap, mem.ObjMmap:
		b.TargDynamic++
	case mem.ObjLib:
		b.TargLib++
	}
}

// PointerStats aggregates the precise and likely pointer populations of
// one process (Table 2 rows).
type PointerStats struct {
	Precise RegionBreakdown
	Likely  RegionBreakdown
}

// Add accumulates other into s (multi-process aggregation).
func (s *PointerStats) Add(other PointerStats) {
	addBreakdown(&s.Precise, other.Precise)
	addBreakdown(&s.Likely, other.Likely)
}

func addBreakdown(dst *RegionBreakdown, src RegionBreakdown) {
	dst.Ptr += src.Ptr
	dst.SrcStatic += src.SrcStatic
	dst.SrcDynamic += src.SrcDynamic
	dst.SrcLib += src.SrcLib
	dst.TargStatic += src.TargStatic
	dst.TargDynamic += src.TargDynamic
	dst.TargLib += src.TargLib
}

// Analysis is the conservative analysis result for one process: the
// object invariants of §6 plus pointer statistics.
type Analysis struct {
	// Immutable holds objects pointed to by likely pointers: they cannot
	// be relocated in the new version.
	Immutable map[mem.Addr]*mem.Object
	// Nonupdatable holds objects that are either immutable or contain
	// likely pointers: they cannot be type-transformed.
	Nonupdatable map[mem.Addr]bool
	// Stats is the pointer census.
	Stats PointerStats
}

// IsImmutable reports whether the object starting at addr is pinned.
func (a *Analysis) IsImmutable(addr mem.Addr) bool {
	_, ok := a.Immutable[addr]
	return ok
}

// likelyPointer validates one conservatively-scanned word: it must point
// into a live object, and if the target carries a data type tag the
// pointed offset must be plausibly aligned ("our pointer analysis uses the
// data type tag associated to the pointed object to reject illegal
// (unaligned) likely pointers").
func likelyPointer(tab *mem.ObjectTable, word uint64) (*mem.Object, bool) {
	if word == 0 {
		return nil, false
	}
	target, ok := tab.Containing(mem.Addr(word))
	if !ok {
		return nil, false
	}
	if target.Type != nil {
		off := uint64(mem.Addr(word) - target.Addr)
		align := target.Type.Align
		if align > 1 && off%4 != 0 {
			return nil, false
		}
	}
	return target, true
}

// opaqueRangesOf returns the byte ranges of o that must be scanned
// conservatively under the policy, and the precise pointer slots.
func opaqueRangesOf(o *mem.Object, pol types.Policy) ([]types.OpaqueRange, []types.PtrSlot) {
	if o.Type == nil {
		// Uninstrumented object: fully opaque.
		return []types.OpaqueRange{{Offset: 0, Size: o.Size}}, nil
	}
	l := types.LayoutOf(o.Type, pol)
	return l.Opaques, l.Ptrs
}

// scratchFor returns a size-byte view of the reused buffer, growing it
// on demand.
func scratchFor(scratch *[]byte, size uint64) []byte {
	if uint64(cap(*scratch)) < size {
		*scratch = make([]byte, size)
	}
	return (*scratch)[:size]
}

// scanWords is the one word-scan loop of mutable tracing, shared by the
// conservative analysis and discovery. buf holds one object's bytes and
// ptrs/opaques its layout (opaqueRangesOf). Every non-nil precise pointer
// slot that points into a live object is passed to precise; then every
// 8-aligned word of the opaque ranges that passes likelyPointer is passed
// to likely. Lookups go through the frozen object table, so the loop
// takes no lock.
func scanWords(tab *mem.ObjectTable, buf []byte, opaques []types.OpaqueRange, ptrs []types.PtrSlot,
	precise, likely func(target *mem.Object)) {
	size := uint64(len(buf))
	for _, slot := range ptrs {
		if slot.Func || slot.Offset+8 > size {
			continue
		}
		word := binary.LittleEndian.Uint64(buf[slot.Offset:])
		if word == 0 {
			continue
		}
		if target, ok := tab.Containing(mem.Addr(word)); ok {
			precise(target)
		}
	}
	for _, r := range opaques {
		end := r.Offset + r.Size
		if end > size {
			end = size
		}
		for off := (r.Offset + 7) &^ 7; off+8 <= end; off += 8 {
			if target, ok := likelyPointer(tab, binary.LittleEndian.Uint64(buf[off:])); ok {
				likely(target)
			}
		}
	}
}

// AnalyzeProc runs the conservative analysis over every live object of the
// process: precise pointer slots are censused and validated; opaque areas
// are scanned for likely pointers; immutability and nonupdatability
// invariants are derived. Library objects are scanned only if listed in
// transferLibs (§6: "MCR does not conservatively analyze nor transfer
// shared library state by default").
//
// Each object is read with one locked ReadAt into a reused buffer, so the
// walk is race-free on a still-serving process, and its words are checked
// against one object table taken at the start. Callers validating a
// speculative result must capture the process's delta counters before
// calling: a table or a read that raced an allocation or a store is then
// detected by the counters, not by the walk.
func AnalyzeProc(p *program.Proc, pol types.Policy, transferLibs map[string]bool) (*Analysis, error) {
	an := &Analysis{
		Immutable:    make(map[mem.Addr]*mem.Object),
		Nonupdatable: make(map[mem.Addr]bool),
	}
	tab := p.Index().Table()
	as := p.Space()
	var cur *mem.Object
	hasLikely := false
	precise := func(target *mem.Object) { an.Stats.Precise.add(cur.Kind, target.Kind) }
	likely := func(target *mem.Object) {
		hasLikely = true
		an.Stats.Likely.add(cur.Kind, target.Kind)
		an.Immutable[target.Addr] = target
		an.Nonupdatable[target.Addr] = true
	}
	var scratch []byte
	for _, o := range tab.Objects() {
		if o.Kind == mem.ObjLib && !transferLibs[o.Name] {
			continue
		}
		opaques, ptrs := opaqueRangesOf(o, pol)
		if len(opaques) == 0 && len(ptrs) == 0 {
			continue
		}
		buf := scratchFor(&scratch, o.Size)
		if err := as.ReadAt(o.Addr, buf); err != nil {
			return nil, fmt.Errorf("trace: read %s: %w", o, err)
		}
		cur, hasLikely = o, false
		scanWords(tab, buf, opaques, ptrs, precise, likely)
		if hasLikely {
			an.Nonupdatable[o.Addr] = true
		}
	}
	return an, nil
}

// AnalyzeInstance analyzes every process of the instance.
func AnalyzeInstance(inst *program.Instance, pol types.Policy, transferLibs map[string]bool) (map[program.ProcKey]*Analysis, error) {
	out := make(map[program.ProcKey]*Analysis)
	for _, p := range inst.Procs() {
		an, err := AnalyzeProc(p, pol, transferLibs)
		if err != nil {
			return nil, fmt.Errorf("trace: analyze %s: %w", p.Key(), err)
		}
		out[p.Key()] = an
	}
	return out, nil
}

// AggregateStats sums the per-process pointer statistics (Table 2 reports
// per-program aggregates).
func AggregateStats(analyses map[program.ProcKey]*Analysis) PointerStats {
	var total PointerStats
	keys := make([]program.ProcKey, 0, len(analyses))
	for k := range analyses {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Site != keys[j].Site {
			return keys[i].Site < keys[j].Site
		}
		return keys[i].Seq < keys[j].Seq
	})
	for _, k := range keys {
		total.Add(analyses[k].Stats)
	}
	return total
}

// ImmutableHeapPlan extracts, from an analysis, the global-reallocation
// placement plan for startup-time heap objects (handed to the new
// version's allocator) and the set of non-startup immutable heap objects
// the engine must pre-reserve before startup.
func ImmutableHeapPlan(an *Analysis) (plan map[mem.PlanKey]mem.Addr, reserve []*mem.Object) {
	plan = make(map[mem.PlanKey]mem.Addr)
	for _, o := range an.Immutable {
		if o.Kind != mem.ObjHeap {
			continue
		}
		if o.Startup && o.Site != 0 {
			plan[mem.PlanKey{Site: o.Site, Seq: o.Seq}] = o.Addr
		} else {
			reserve = append(reserve, o)
		}
	}
	sort.Slice(reserve, func(i, j int) bool { return reserve[i].Addr < reserve[j].Addr })
	return plan, reserve
}

// ImmutableStatics extracts the pinned-statics map (symbol -> address) the
// engine passes to the new version's layout, the offline-relinking step.
func ImmutableStatics(an *Analysis) map[string]uint64 {
	out := make(map[string]uint64)
	for _, o := range an.Immutable {
		if o.Kind == mem.ObjStatic && o.Name != "" {
			out[o.Name] = uint64(o.Addr)
		}
	}
	return out
}

// CombinedPlacement merges the global-reallocation requirements of every
// process (§5: "coalescing overlapping memory objects from different
// processes in the old version into 'superobjects' reallocated in the new
// version at startup"). It returns the site/seq placement plan (dropped
// to explicit reservations on cross-process conflicts), the coalesced
// reservation spans for the new root's heap (propagated to children by
// fork semantics), and the union of pinned statics.
func CombinedPlacement(analyses map[program.ProcKey]*Analysis) (map[mem.PlanKey]mem.Addr, []*mem.Object, map[string]uint64) {
	plan := make(map[mem.PlanKey]mem.Addr)
	statics := make(map[string]uint64)
	var rawReserve []*mem.Object
	keys := make([]program.ProcKey, 0, len(analyses))
	for k := range analyses {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Site != keys[j].Site {
			return keys[i].Site < keys[j].Site
		}
		return keys[i].Seq < keys[j].Seq
	})
	for _, k := range keys {
		an := analyses[k]
		p, r := ImmutableHeapPlan(an)
		for pk, addr := range p {
			if prev, dup := plan[pk]; dup && prev != addr {
				// Same allocation identity pinned at different addresses
				// in different processes (post-fork divergence): fall
				// back to explicit reservations for both.
				delete(plan, pk)
				rawReserve = append(rawReserve,
					&mem.Object{Addr: prev, Size: 16, Kind: mem.ObjHeap},
					&mem.Object{Addr: addr, Size: 16, Kind: mem.ObjHeap})
				continue
			}
			plan[pk] = addr
		}
		rawReserve = append(rawReserve, r...)
		for name, addr := range ImmutableStatics(an) {
			statics[name] = addr
		}
	}
	return plan, coalesce(rawReserve), statics
}

// coalesce merges overlapping or chunk-adjacent reservation ranges into
// superobjects.
func coalesce(objs []*mem.Object) []*mem.Object {
	if len(objs) == 0 {
		return nil
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Addr < objs[j].Addr })
	const headerMargin = 32 // in-band chunk header reserved before user data
	var out []*mem.Object
	cur := &mem.Object{Addr: objs[0].Addr, Size: objs[0].Size, Kind: mem.ObjHeap,
		Name: "mcr:superobject"}
	for _, o := range objs[1:] {
		if o.Addr <= cur.End()+headerMargin {
			if end := o.End(); end > cur.End() {
				cur.Size = uint64(end - cur.Addr)
			}
			continue
		}
		out = append(out, cur)
		cur = &mem.Object{Addr: o.Addr, Size: o.Size, Kind: mem.ObjHeap,
			Name: "mcr:superobject"}
	}
	return append(out, cur)
}
