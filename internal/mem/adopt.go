// Page-frame adoption: the simulated analogue of the paper's VMA remap.
// The real MCR implementation commits the common in-place-update case by
// remapping whole VMAs from the old process image into the new one rather
// than copying object by object. Here the same handoff is a page-frame
// move between two AddressSpaces: DonatePage detaches a frame from the old
// space, AdoptPage installs it into the new one at the same virtual
// address, and RestorePage puts a frame back with its original soft-dirty
// bookkeeping when an update rolls back. Frames move by reference: a move
// hands over the page itself, and neither side copies its 4 KiB. An
// AdoptLedger records every move — where the frame came from and the
// bookkeeping bits it carried, never its bytes — so rollback (return the
// frames) and the canary window (copy contents back while keeping the
// frames) are both exact. The canary copy-back is the one path that copies
// page data: the old and new instances must then own separate bytes.

package mem

import (
	"fmt"
	"sync"
)

// PageFrame is a detached page: the frame itself plus the soft-dirty
// bookkeeping it carried when it was donated. Present is false when the
// donated page had never been touched (demand-zero): there is no frame,
// and restoring it re-establishes the page's absence rather than
// materializing a zero frame. A frame belongs to exactly one holder: after
// AdoptPage or RestorePage installs it, the PageFrame value must not be
// installed again.
type PageFrame struct {
	p         *page
	SoftDirty bool
	Consumed  bool
	Present   bool
}

// DonatePage detaches the frame at page base pb from the address space and
// returns it. The page range must be fully mapped; pb must be page-aligned.
// After donation the page reads as demand-zero again (the frame is gone,
// exactly like an munmap+mmap of that page). Counts as a mutation.
func (as *AddressSpace) DonatePage(pb Addr) (PageFrame, error) {
	if pb&Addr(pageMask) != 0 {
		return PageFrame{}, fmt.Errorf("mem: DonatePage %#x: not page-aligned", pb)
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	if err := as.checkRangeLocked(pb, PageSize); err != nil {
		return PageFrame{}, fmt.Errorf("mem: DonatePage: %w", err)
	}
	as.mutations++
	p := as.pages[pb]
	if p == nil {
		return PageFrame{}, nil // demand-zero page: nothing resident to move
	}
	delete(as.pages, pb)
	return PageFrame{p: p, SoftDirty: p.softDirty, Consumed: p.consumed, Present: true}, nil
}

// installLocked puts f's frame at pb with the given bits, allocating a zero
// frame for a present frame that carries none. The caller holds as.mu.
func (as *AddressSpace) installLocked(pb Addr, f PageFrame, softDirty, consumed bool) {
	p := f.p
	if p == nil {
		p = &page{}
	}
	p.softDirty, p.consumed = softDirty, consumed
	as.pages[pb] = p
}

// AdoptPage installs a donated frame at page base pb, replacing whatever
// was resident there (the new version's startup may have touched the same
// addresses). The installed page is marked soft-dirty and not consumed —
// exactly the bit state an object-by-object copy of the same bytes would
// have left via WriteAt — so the next update's dirty tracking is identical
// across the adoption and copy paths. Counts as a mutation.
func (as *AddressSpace) AdoptPage(pb Addr, f PageFrame) error {
	if pb&Addr(pageMask) != 0 {
		return fmt.Errorf("mem: AdoptPage %#x: not page-aligned", pb)
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	if err := as.checkRangeLocked(pb, PageSize); err != nil {
		return fmt.Errorf("mem: AdoptPage: %w", err)
	}
	as.mutations++
	as.installLocked(pb, f, true, false)
	return nil
}

// RestorePage reinstalls a frame with its recorded bookkeeping bits — the
// rollback inverse of DonatePage. A frame that was not present at donation
// time restores the page's absence. Counts as a mutation.
func (as *AddressSpace) RestorePage(pb Addr, f PageFrame) error {
	if pb&Addr(pageMask) != 0 {
		return fmt.Errorf("mem: RestorePage %#x: not page-aligned", pb)
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	if err := as.checkRangeLocked(pb, PageSize); err != nil {
		return fmt.Errorf("mem: RestorePage: %w", err)
	}
	as.mutations++
	if !f.Present {
		delete(as.pages, pb)
		return nil
	}
	as.installLocked(pb, f, f.SoftDirty, f.Consumed)
	return nil
}

// ExportPage copies the current frame at pb without detaching it or
// changing any bookkeeping: the returned frame owns a private copy of the
// bytes (the canary window's copy-back, where the old and new instances
// must end up with separate frames).
func (as *AddressSpace) ExportPage(pb Addr) (PageFrame, error) {
	if pb&Addr(pageMask) != 0 {
		return PageFrame{}, fmt.Errorf("mem: ExportPage %#x: not page-aligned", pb)
	}
	as.mu.RLock()
	defer as.mu.RUnlock()
	if err := as.checkRangeLocked(pb, PageSize); err != nil {
		return PageFrame{}, fmt.Errorf("mem: ExportPage: %w", err)
	}
	p := as.pages[pb]
	if p == nil {
		return PageFrame{}, nil
	}
	cp := *p
	return PageFrame{p: &cp, SoftDirty: p.softDirty, Consumed: p.consumed, Present: true}, nil
}

// adoptRecord is one donated frame: where it came from, where it went, and
// the bookkeeping bits it carried at donation time. It holds no page data:
// the frame itself lives in the adopting space.
type adoptRecord struct {
	from, to  *AddressSpace
	pb        Addr
	softDirty bool
	consumed  bool
	present   bool
}

// AdoptLedger records every page frame an update donated from the old
// instance to the new one. It is safe for concurrent use (per-process
// transfers record in parallel). Exactly one of three things consumes the
// ledger: ReturnAll (rollback — frames move back with their original
// bits), CopyBack (canary window open — contents are copied back so the
// quiesced old side is whole again, frames stay with the new instance), or
// Forget (plain commit — the frames now simply belong to the new
// instance).
type AdoptLedger struct {
	mu   sync.Mutex
	recs []adoptRecord
}

// Record notes one donated frame. orig must be the frame exactly as
// DonatePage returned it; only its bookkeeping bits are kept.
func (l *AdoptLedger) Record(from, to *AddressSpace, pb Addr, orig PageFrame) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, adoptRecord{from: from, to: to, pb: pb,
		softDirty: orig.SoftDirty, consumed: orig.Consumed, present: orig.Present})
}

// Count returns the number of donated frames still held by the ledger.
func (l *AdoptLedger) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// ReturnAll moves every donated frame back into its original address space
// with its original soft-dirty/consumed bits, emptying the ledger. Frames
// whose contents were not modified in the new space (the transfer never
// writes into adopted pages before commit) come back bit-identical. The
// first error is returned but the sweep continues: rollback must return
// as many frames as it can.
func (l *AdoptLedger) ReturnAll() error {
	return l.drain((*AddressSpace).DonatePage)
}

// CopyBack copies every donated frame's current contents back into the
// originating address space with the original bookkeeping bits, leaving
// the frames themselves with the adopting space, then empties the ledger.
// The canary window calls this at window open: the quiesced old instance
// must hold a complete bit-identical image so a breach revert adopts it
// back without any frame motion.
func (l *AdoptLedger) CopyBack() error {
	return l.drain((*AddressSpace).ExportPage)
}

// drain sends every recorded page back to its originating space, taking
// the frame from the adopting space with take, and empties the ledger.
// The first error is returned; the sweep continues past it.
func (l *AdoptLedger) drain(take func(*AddressSpace, Addr) (PageFrame, error)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var first error
	for _, r := range l.recs {
		f, err := take(r.to, r.pb)
		if err == nil {
			err = r.from.RestorePage(r.pb, PageFrame{p: f.p,
				SoftDirty: r.softDirty, Consumed: r.consumed, Present: r.present})
		}
		if err != nil && first == nil {
			first = err
		}
	}
	l.recs = nil
	return first
}

// Forget drops the ledger without moving anything: after a plain commit
// the donated frames simply belong to the new instance.
func (l *AdoptLedger) Forget() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = nil
}
