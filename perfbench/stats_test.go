package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100) // 1..100
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1}, {99.5, 100},
	} {
		if got, ok := percentile(xs, c.p); !ok || got != c.want {
			t.Errorf("p%v = %v, %v; want %v", c.p, got, ok, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of 1..4 = %v, want the lower middle 2", got)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	// 100 samples: the sample at rank 89 (value 90) has exactly 10 above
	// it, so the tail is p90 and p91 would rest on 9.
	v, pct, ok := tail(seq(100))
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail(1..100) = %v p%v %v, want 90 p90", v, pct, ok)
	}
	// 40 samples: the tail falls to p75 (value 30, 10 beyond).
	if v, pct, _ := tail(seq(40)); v != 30 || pct != 75 {
		t.Errorf("tail(1..40) = %v p%v, want 30 p75", v, pct)
	}
	// 11 samples is the smallest input with a tail; 10 has none.
	if v, _, ok := tail(seq(11)); !ok || v != 1 {
		t.Errorf("tail(1..11) = %v %v, want 1", v, ok)
	}
	if _, _, ok := tail(seq(10)); ok {
		t.Error("tail of 10 samples reported ok; nothing can have 10 beyond it")
	}
	// Ties count by rank: ten copies of the maximum are all beyond.
	xs := append(seq(20), 100, 100, 100, 100, 100, 100, 100, 100, 100, 100)
	if v, _, _ := tail(xs); v != 20 {
		t.Errorf("tail with 10 tied maxima = %v, want 20", v)
	}
}

func TestFailedRequestsAreInfinitelySlow(t *testing.T) {
	reqs := make([]reqRec, 100)
	lats := make([]float64, len(reqs))
	for i := range reqs {
		reqs[i].lat = 1
		if i%50 == 0 { // 2 of 100 fail
			reqs[i].lat = failed
		}
		lats[i] = reqs[i].lat
	}
	if n := failedReqs(reqs); n != 2 {
		t.Fatalf("failedReqs = %d, want 2", n)
	}
	if p99, _ := percentile(lats, 99); !math.IsInf(p99, 1) {
		t.Errorf("p99 with 2%% failed = %v, want +Inf", p99)
	}
	if p98, _ := percentile(lats, 98); p98 != 1 {
		t.Errorf("p98 with 2%% failed = %v, want 1", p98)
	}
	if finite(failed) != math.MaxFloat64 {
		t.Error("an infinite latency must encode as the largest finite float")
	}
}

func TestClientStallTakesWorstDueInsideUpdate(t *testing.T) {
	ms := time.Millisecond
	ups := []*updateRec{
		{start: 10 * ms, end: 20 * ms},
		{start: 30 * ms, end: 40 * ms},
		{start: 50 * ms, end: 51 * ms}, // nothing due inside
	}
	reqs := []reqRec{
		{due: 5 * ms, lat: 100}, // before any update
		{due: 12 * ms, lat: 3},
		{due: 20 * ms, lat: 7}, // due exactly at the end counts
		{due: 35 * ms, lat: failed},
		{due: 36 * ms, lat: 2},
	}
	got := clientStalls(ups, reqs)
	if len(got) != 2 || got[0] != 7 || !math.IsInf(got[1], 1) {
		t.Errorf("clientStalls = %v, want [7 +Inf]", got)
	}
}

func TestResidual(t *testing.T) {
	ms := time.Millisecond
	// Discovery (5) overlaps restart (8): only the longer is on the
	// critical path. 20 - (1 + 2 + 8 + 3) = 6.
	if got := residual(20*ms, 1*ms, 2*ms, 8*ms, 5*ms, 3*ms); got != 6*ms {
		t.Errorf("residual = %v, want 6ms", got)
	}
	// Discovery longer than restart.
	if got := residual(20*ms, 1*ms, 2*ms, 4*ms, 9*ms, 3*ms); got != 5*ms {
		t.Errorf("residual = %v, want 5ms", got)
	}
	// Phases that over-explain the downtime give a negative residual.
	if got := residual(10*ms, 5*ms, 5*ms, 5*ms, 0, 0); got != -5*ms {
		t.Errorf("residual = %v, want -5ms", got)
	}
}

func TestMissingLayerMetricReadsZeroWithItsUnit(t *testing.T) {
	got, err := pick(nil, perLayerNames(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range perLayerNames() {
		if !strings.HasPrefix(n, "e2e.") && !strings.HasPrefix(n, "overhead.") {
			continue // the layers' own metrics are always computed
		}
		if m := got[n]; m.Value != 0 || m.Unit == "" {
			t.Errorf("%s = %+v, want 0 with a unit", n, m)
		}
	}
	if _, err := pick(nil, endToEndNames, false); err == nil {
		t.Error("a missing end-to-end metric must be an error")
	}
}
