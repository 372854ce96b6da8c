package mem

import (
	"bytes"
	"reflect"
	"testing"
)

// adoptPair maps the same one-region layout into two fresh address spaces
// and returns them, modeling the old and new instance sides of a
// frame move.
func adoptPair(t *testing.T) (old, new *AddressSpace) {
	t.Helper()
	old, new = NewAddressSpace(), NewAddressSpace()
	for _, as := range []*AddressSpace{old, new} {
		if err := as.Map(testBase, 4*PageSize, RegionHeap, "heap"); err != nil {
			t.Fatalf("Map: %v", err)
		}
	}
	return old, new
}

func TestDonateAdoptMovesFrame(t *testing.T) {
	old, new := adoptPair(t)
	payload := bytes.Repeat([]byte{0x5a}, PageSize)
	if err := old.WriteAt(testBase, payload); err != nil {
		t.Fatal(err)
	}
	if err := new.WriteAt(testBase, bytes.Repeat([]byte{0x11}, PageSize)); err != nil {
		t.Fatal(err)
	}
	f, err := old.DonatePage(testBase)
	if err != nil {
		t.Fatalf("DonatePage: %v", err)
	}
	if !f.Present || !f.SoftDirty {
		t.Fatalf("donated frame = %+v, want present and soft-dirty", f)
	}
	// The old side reads demand-zero after donation.
	got := make([]byte, PageSize)
	if err := old.ReadAt(testBase, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, PageSize)) {
		t.Error("donated page still readable on the old side")
	}
	if err := new.AdoptPage(testBase, f); err != nil {
		t.Fatalf("AdoptPage: %v", err)
	}
	if err := new.ReadAt(testBase, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("adopted page does not carry the donated bytes")
	}
	// Adoption leaves the same dirty-tracking state a WriteAt of the same
	// bytes would have: soft-dirty set, not consumed.
	if !new.PageSoftDirty(testBase) {
		t.Error("adopted page not soft-dirty")
	}
	if n := new.ConsumedCount(); n != 0 {
		t.Errorf("adopted page consumed: %d", n)
	}
}

func TestDonateDemandZeroPage(t *testing.T) {
	old, new := adoptPair(t)
	f, err := old.DonatePage(testBase + PageSize)
	if err != nil {
		t.Fatalf("DonatePage: %v", err)
	}
	if f.Present {
		t.Fatalf("untouched page donated a resident frame: %+v", f)
	}
	// Restoring the absent frame re-establishes absence, not a zero frame.
	if err := new.AdoptPage(testBase+PageSize, f); err != nil {
		t.Fatalf("AdoptPage: %v", err)
	}
	if err := old.RestorePage(testBase+PageSize, f); err != nil {
		t.Fatalf("RestorePage: %v", err)
	}
	if old.SoftDirtyCount() != 0 {
		t.Error("restored absent frame left dirty bookkeeping")
	}
}

func TestDonateRejectsUnalignedAndUnmapped(t *testing.T) {
	old, _ := adoptPair(t)
	if _, err := old.DonatePage(testBase + 8); err == nil {
		t.Error("DonatePage accepted an unaligned base")
	}
	if _, err := old.DonatePage(0x10000); err == nil {
		t.Error("DonatePage accepted an unmapped page")
	}
	if err := old.AdoptPage(0x10000, PageFrame{Present: true}); err == nil {
		t.Error("AdoptPage accepted an unmapped page")
	}
	if err := old.RestorePage(testBase+8, PageFrame{}); err == nil {
		t.Error("RestorePage accepted an unaligned base")
	}
}

func TestLedgerReturnAllRestoresBitsAndBytes(t *testing.T) {
	old, new := adoptPair(t)
	payload := bytes.Repeat([]byte{0xc3}, PageSize)
	if err := old.WriteAt(testBase, payload); err != nil {
		t.Fatal(err)
	}
	// Give the page the exact pre-donation bookkeeping we must get back:
	// soft-dirty cleared, consumed set.
	old.ClearSoftDirty()
	old.ConsumedDirtyPages()
	var l AdoptLedger
	f, err := old.DonatePage(testBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := new.AdoptPage(testBase, f); err != nil {
		t.Fatal(err)
	}
	l.Record(old, new, testBase, f)
	if l.Count() != 1 {
		t.Fatalf("ledger count = %d", l.Count())
	}
	if err := l.ReturnAll(); err != nil {
		t.Fatalf("ReturnAll: %v", err)
	}
	if l.Count() != 0 {
		t.Errorf("ledger not emptied: %d", l.Count())
	}
	got := make([]byte, PageSize)
	if err := old.ReadAt(testBase, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("returned frame lost its bytes")
	}
	if old.PageSoftDirty(testBase) {
		t.Error("returned frame re-dirtied the page")
	}
	// The frame left the new side entirely.
	if err := new.ReadAt(testBase, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, PageSize)) {
		t.Error("returned frame still resident on the new side")
	}
}

func TestLedgerCopyBackKeepsFrameWithNewSide(t *testing.T) {
	old, new := adoptPair(t)
	payload := bytes.Repeat([]byte{0x7e}, PageSize)
	if err := old.WriteAt(testBase, payload); err != nil {
		t.Fatal(err)
	}
	var l AdoptLedger
	f, err := old.DonatePage(testBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := new.AdoptPage(testBase, f); err != nil {
		t.Fatal(err)
	}
	l.Record(old, new, testBase, f)
	if err := l.CopyBack(); err != nil {
		t.Fatalf("CopyBack: %v", err)
	}
	if l.Count() != 0 {
		t.Errorf("ledger not emptied: %d", l.Count())
	}
	got := make([]byte, PageSize)
	for side, as := range map[string]*AddressSpace{"old": old, "new": new} {
		if err := as.ReadAt(testBase, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("%s side lost the page contents after CopyBack", side)
		}
	}
}

func TestLedgerForgetDropsRecords(t *testing.T) {
	old, new := adoptPair(t)
	if err := old.WriteAt(testBase, []byte{1}); err != nil {
		t.Fatal(err)
	}
	var l AdoptLedger
	f, err := old.DonatePage(testBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := new.AdoptPage(testBase, f); err != nil {
		t.Fatal(err)
	}
	l.Record(old, new, testBase, f)
	l.Forget()
	if l.Count() != 0 {
		t.Errorf("Forget left %d records", l.Count())
	}
	// ReturnAll after Forget is a no-op: the frames belong to the new side.
	if err := l.ReturnAll(); err != nil {
		t.Fatalf("ReturnAll after Forget: %v", err)
	}
	got := make([]byte, 1)
	if err := new.ReadAt(testBase, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Error("committed frame left the new side")
	}
}

// TestFrameMovesByReference pins frame ownership across a move: the frame
// the old space donated is the very frame the new space installs (no copy
// in between), the old side reads demand-zero and can fault in a fresh
// page of its own, and stores on either side never reach the other.
func TestFrameMovesByReference(t *testing.T) {
	old, new := adoptPair(t)
	payload := bytes.Repeat([]byte{0x3c}, PageSize)
	if err := old.WriteAt(testBase, payload); err != nil {
		t.Fatal(err)
	}
	f, err := old.DonatePage(testBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := new.AdoptPage(testBase, f); err != nil {
		t.Fatal(err)
	}
	// The adopting space owns the donated frame itself.
	if err := new.WriteAt(testBase, []byte{0x99}); err != nil {
		t.Fatal(err)
	}
	if f.p.data[0] != 0x99 {
		t.Error("the adopted page is not the donated frame (it was copied)")
	}
	got := make([]byte, PageSize)
	if err := old.ReadAt(testBase, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, PageSize)) {
		t.Error("old side does not read demand-zero after donation")
	}
	// A store on the old side faults in a fresh frame there.
	if err := old.WriteAt(testBase+8, []byte{0x42}); err != nil {
		t.Fatal(err)
	}
	if err := new.ReadAt(testBase, got); err != nil {
		t.Fatal(err)
	}
	want := append([]byte{0x99}, payload[1:]...)
	if !bytes.Equal(got, want) {
		t.Error("an old-side store reached the adopted frame")
	}
}

// TestLedgerReturnAllRestoresEveryBitCombination donates pages carrying
// each bookkeeping state — soft-dirty, consumed, both, neither, and an
// untouched demand-zero page — and checks ReturnAll hands every page back
// with its exact bits and bytes while the new side is left with none of
// them.
func TestLedgerReturnAllRestoresEveryBitCombination(t *testing.T) {
	const pages = 5
	old, new := NewAddressSpace(), NewAddressSpace()
	for _, as := range []*AddressSpace{old, new} {
		if err := as.Map(testBase, pages*PageSize, RegionHeap, "heap"); err != nil {
			t.Fatal(err)
		}
	}
	write := func(i int, b byte) {
		t.Helper()
		if err := old.WriteAt(testBase+Addr(i)*PageSize, bytes.Repeat([]byte{b}, PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	// Page 0: resident, neither bit. Page 1: consumed. Page 2: consumed
	// and re-dirtied. Page 3: soft-dirty only. Page 4: never touched.
	write(0, 0x10)
	old.ClearSoftDirty()
	write(1, 0x11)
	write(2, 0x12)
	old.ReadAndClearSoftDirty()
	write(2, 0x22)
	write(3, 0x13)
	wantDirty, wantConsumed := old.SoftDirtyPages(), old.ConsumedDirtyPages()
	if len(wantDirty) != 2 || len(wantConsumed) != 2 {
		t.Fatalf("setup: dirty %v consumed %v", wantDirty, wantConsumed)
	}
	wantBytes := make([][]byte, pages)
	for i := range wantBytes {
		wantBytes[i] = make([]byte, PageSize)
		if err := old.ReadAt(testBase+Addr(i)*PageSize, wantBytes[i]); err != nil {
			t.Fatal(err)
		}
	}
	var l AdoptLedger
	for i := 0; i < pages; i++ {
		pb := testBase + Addr(i)*PageSize
		f, err := old.DonatePage(pb)
		if err != nil {
			t.Fatal(err)
		}
		if err := new.AdoptPage(pb, f); err != nil {
			t.Fatal(err)
		}
		l.Record(old, new, pb, f)
	}
	if err := l.ReturnAll(); err != nil {
		t.Fatal(err)
	}
	if got := old.SoftDirtyPages(); !equalAddrs(got, wantDirty) {
		t.Errorf("soft-dirty pages after return %v, want %v", got, wantDirty)
	}
	if got := old.ConsumedDirtyPages(); !equalAddrs(got, wantConsumed) {
		t.Errorf("consumed pages after return %v, want %v", got, wantConsumed)
	}
	if old.RSSBytes() != (pages-1)*PageSize {
		t.Errorf("old RSS %d after return, want %d resident pages (the untouched one stays absent)", old.RSSBytes(), pages-1)
	}
	got := make([]byte, PageSize)
	for i, want := range wantBytes {
		if err := old.ReadAt(testBase+Addr(i)*PageSize, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("page %d came back with different bytes", i)
		}
	}
	if new.RSSBytes() != 0 {
		t.Errorf("new side still holds %d bytes of returned frames", new.RSSBytes())
	}
}

func equalAddrs(a, b []Addr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCopyBackSeparatesFrames checks the canary copy-back leaves the two
// sides with separate bytes: after CopyBack, stores on the new side do not
// reach the old side's copy, and the reverse.
func TestCopyBackSeparatesFrames(t *testing.T) {
	old, new := adoptPair(t)
	payload := bytes.Repeat([]byte{0x6b}, PageSize)
	if err := old.WriteAt(testBase, payload); err != nil {
		t.Fatal(err)
	}
	var l AdoptLedger
	f, err := old.DonatePage(testBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := new.AdoptPage(testBase, f); err != nil {
		t.Fatal(err)
	}
	l.Record(old, new, testBase, f)
	if err := l.CopyBack(); err != nil {
		t.Fatal(err)
	}
	if err := new.WriteAt(testBase, []byte{0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := old.ReadAt(testBase, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("a new-side store after CopyBack changed the old side's bytes")
	}
	if err := old.WriteAt(testBase+100, []byte{0xee}); err != nil {
		t.Fatal(err)
	}
	if err := new.ReadAt(testBase, got); err != nil {
		t.Fatal(err)
	}
	if got[100] != payload[100] {
		t.Error("an old-side store after CopyBack changed the new side's bytes")
	}
}

// TestLedgerRecordHoldsNoPageData pins that the ledger records only where
// a frame went and its bookkeeping bits: no page bytes and no reference
// to the frame (which belongs to the adopting space).
func TestLedgerRecordHoldsNoPageData(t *testing.T) {
	rt := reflect.TypeOf(adoptRecord{})
	pageType := reflect.TypeOf(page{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		switch {
		case f.Type.Kind() == reflect.Array:
			t.Errorf("adoptRecord.%s is an inline array (%s)", f.Name, f.Type)
		case f.Type == pageType || f.Type == reflect.PointerTo(pageType) || f.Type == reflect.TypeOf(PageFrame{}):
			t.Errorf("adoptRecord.%s holds a page frame (%s)", f.Name, f.Type)
		}
	}
	if size := rt.Size(); size > 64 {
		t.Errorf("adoptRecord is %d bytes, want a few words", size)
	}
}

// BenchmarkFrameMove measures one page-frame move as the transfer does
// it: donate from the old space, adopt into the new one, record it in
// the ledger.
func BenchmarkFrameMove(b *testing.B) {
	const pages = 64
	from, to := NewAddressSpace(), NewAddressSpace()
	for _, as := range []*AddressSpace{from, to} {
		if err := as.Map(testBase, pages*PageSize, RegionHeap, "heap"); err != nil {
			b.Fatal(err)
		}
	}
	if err := from.WriteAt(testBase, bytes.Repeat([]byte{0xa5}, pages*PageSize)); err != nil {
		b.Fatal(err)
	}
	var l AdoptLedger
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb := testBase + Addr(i%pages)*PageSize
		f, err := from.DonatePage(pb)
		if err != nil {
			b.Fatal(err)
		}
		if err := to.AdoptPage(pb, f); err != nil {
			b.Fatal(err)
		}
		l.Record(from, to, pb, f)
		if i%pages == pages-1 {
			// Every frame moved: commit them and move them back.
			l.Forget()
			from, to = to, from
		}
	}
}
