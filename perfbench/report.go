package main

import (
	"fmt"
	"sort"
)

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	note  string
}

// series collects per-update samples of one metric.
type series struct {
	name, unit string
	xs         []float64
}

func (s *series) add(v float64) { s.xs = append(s.xs, v) }

// medianMetric reports the series median, or 0 over no samples (a layer
// that did no work in this workload).
func (s *series) medianMetric() metric {
	return metric{name: s.name, unit: s.unit, value: median(s.xs), n: len(s.xs)}
}

// failedReqs counts failed requests (errors, timeouts, wrong replies).
func failedReqs(reqs []reqRec) int {
	n := 0
	for _, r := range reqs {
		if r.lat == failed {
			n++
		}
	}
	return n
}

// clientStalls returns, per update, the longest latency of any request
// due while Update ran (+Inf when one of them failed). Updates with no
// request due inside them have no sample.
func clientStalls(ups []*updateRec, reqs []reqRec) []float64 {
	byDue := append([]reqRec(nil), reqs...)
	sort.Slice(byDue, func(i, j int) bool { return byDue[i].due < byDue[j].due })
	var out []float64
	for _, u := range ups {
		lo := sort.Search(len(byDue), func(i int) bool { return byDue[i].due >= u.start })
		worst, any := 0.0, false
		for _, r := range byDue[lo:] {
			if r.due > u.end {
				break
			}
			worst, any = max(worst, r.lat), true
		}
		if any {
			out = append(out, worst)
		}
	}
	return out
}

// endToEnd computes every end-to-end metric that applies to the phase,
// from untraced or traced runs alike.
func endToEnd(p *phase) []metric {
	var setup, setupCPU, down, commit, commitCPU, rollback, heap []float64
	for i := range p.setups {
		setup = append(setup, p.setups[i].Seconds())
		setupCPU = append(setupCPU, p.setupCPU[i].Seconds())
	}
	updFailed := 0
	for _, u := range p.updates {
		heap = append(heap, u.heapMB)
		if u.failedUpdate() {
			updFailed++
		}
		switch {
		case u.inject && u.rep != nil && u.rep.rolledBack:
			rollback = append(rollback, ms(u.wall))
		case !u.inject && u.committed():
			down = append(down, ms(u.rep.downtime))
			commit = append(commit, ms(u.wall))
			commitCPU = append(commitCPU, ms(u.cpu))
		}
	}
	out := []metric{
		{name: "setup_s", unit: "s", value: median(setupCPU), n: len(setupCPU)},
		{name: "setup_wall_s", unit: "s", value: median(setup), n: len(setup)},
		{name: "downtime_p50_ms", unit: "ms", value: median(down), n: len(down)},
	}
	if v, pct, ok := tail(down); ok {
		out = append(out, metric{name: "downtime_tail_ms", unit: "ms", value: v, n: len(down),
			note: fmt.Sprintf("p%.1f, %d beyond", pct, tailBeyond)})
	}
	out = append(out,
		metric{name: "commit_p50_ms", unit: "ms", value: median(commit), n: len(commit)},
		metric{name: "commit_cpu_p50_ms", unit: "ms", value: median(commitCPU), n: len(commitCPU)},
		metric{name: "heap_mb_p50", unit: "MiB", value: median(heap), n: len(heap)},
		metric{name: "update_failed_frac", unit: "fraction", value: frac(updFailed, len(p.updates)), n: len(p.updates)},
	)
	if len(rollback) > 0 {
		out = append(out, metric{name: "rollback_p50_ms", unit: "ms", value: median(rollback), n: len(rollback)})
	}
	if p.live {
		reqs := p.reqs
		lats := make([]float64, len(reqs))
		for i, r := range reqs {
			lats[i] = r.lat
		}
		stalls := clientStalls(p.updates, reqs)
		p99, _ := percentile(lats, 99)
		out = append(out,
			metric{name: "client_stall_p50_ms", unit: "ms", value: median(stalls), n: len(stalls)},
			metric{name: "req_p50_ms", unit: "ms", value: median(lats), n: len(lats)},
			metric{name: "req_p99_ms", unit: "ms", value: p99, n: len(lats)},
			metric{name: "req_failed_frac", unit: "fraction", value: frac(failedReqs(reqs), len(reqs)), n: len(reqs)},
		)
	}
	return out
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer computes the per-layer metrics of a traced phase. Values are
// medians per update unless the name says otherwise; a layer that does
// no work in the workload reports 0 over 0 samples.
func perLayer(p *phase) []metric {
	mk := func(name, unit string) *series { return &series{name: name, unit: unit} }
	var (
		update     = mk("core.update_ms", "ms")
		precopy    = mk("core.precopy_ms", "ms")
		quiesce    = mk("core.quiesce_ms", "ms")
		analysis   = mk("core.analysis_ms", "ms")
		restart    = mk("core.restart_ms", "ms")
		discovery  = mk("core.discovery_ms", "ms")
		copyT      = mk("core.copy_ms", "ms")
		resid      = mk("core.residual_ms", "ms")
		reanalyzed = mk("core.procs_reanalyzed", "count")
		reused     = mk("core.analyses_reused", "count")
		rollback   = mk("core.rollback_ms", "ms")

		analyze  = mk("trace.analyze_ms", "ms")
		discover = mk("trace.discover_ms", "ms")
		digest   = mk("trace.digest_ms", "ms")
		objects  = mk("trace.objects", "count")
		bytesT   = mk("trace.bytes", "bytes")
		shadow   = mk("trace.shadow_frac", "fraction")
		adopted  = mk("trace.pages_adopted", "count")
		adoptF   = mk("trace.adopt_frac", "fraction")

		precopyPg = mk("checkpoint.precopy_pages", "count")
		handoffPg = mk("checkpoint.handoff_pages", "count")
		workFrac  = mk("checkpoint.daemon_work_frac", "fraction")
		passes    = mk("checkpoint.daemon_passes", "count")
		lag       = mk("checkpoint.shadow_lag_pages", "count")

		converge = mk("quiesce.converge_ms", "ms")

		replayed = mk("reinit.replayed", "count")
		liveEx   = mk("reinit.live_executed", "count")
		conflict = mk("reinit.conflicted", "count")
		fds      = mk("reinit.fds_collected", "count")

		startup = mk("program.startup_ms", "ms")
		procs   = mk("program.procs", "count")
		threads = mk("program.threads", "count")

		rss   = mk("mem.rss_kb", "KiB")
		dirty = mk("mem.dirty_pages", "count")
	)
	for _, u := range p.updates {
		update.add(ms(u.wall))
		rss.add(u.rssKB)
		dirty.add(float64(u.dirtyPages))
		procs.add(float64(u.procs))
		threads.add(float64(u.threads))
		if u.probe.ok {
			converge.add(ms(u.probe.converge))
			analyze.add(ms(u.probe.analyze))
			discover.add(ms(u.probe.discover))
			digest.add(ms(u.probe.digest))
		}
		if u.warm.Armed {
			if t := u.warm.WorkTime + u.warm.PauseTime; t > 0 {
				workFrac.add(float64(u.warm.WorkTime) / float64(t))
			}
			passes.add(float64(u.warm.Passes))
		}
		if u.inject && u.rep != nil && u.rep.rolledBack {
			rollback.add(ms(u.wall))
		}
		if u.inject || !u.committed() {
			continue
		}
		r := u.rep
		precopy.add(ms(r.precopy))
		quiesce.add(ms(r.quiesce))
		analysis.add(ms(r.analysis))
		restart.add(ms(r.restart))
		discovery.add(ms(r.discovery))
		copyT.add(ms(r.copyT))
		resid.add(ms(residual(r.downtime, r.quiesce, r.analysis, r.restart, r.discovery, r.copyT)))
		reanalyzed.add(float64(r.reanalyzed))
		reused.add(float64(r.reused))
		objects.add(float64(r.transfer.ObjectsTransferred))
		bytesT.add(float64(r.transfer.BytesTransferred))
		shadow.add(r.transfer.ShadowFraction())
		adopted.add(float64(r.transfer.PagesAdopted))
		adoptF.add(r.transfer.AdoptionFraction())
		precopyPg.add(float64(r.precopyPages))
		handoffPg.add(float64(r.handoffPages))
		if r.warm {
			lag.add(float64(r.warmLag))
		}
		replayed.add(float64(r.replayed))
		liveEx.add(float64(r.liveExecuted))
		conflict.add(float64(r.conflicted))
		fds.add(float64(r.fdsCollected))
		startup.add(ms(u.startup))
	}
	var out []metric
	for _, s := range []*series{update, precopy, quiesce, analysis, restart, discovery, copyT,
		resid, reanalyzed, reused, rollback, analyze, discover, digest, objects, bytesT, shadow,
		adopted, adoptF, precopyPg, handoffPg, workFrac, passes, lag, converge, replayed, liveEx,
		conflict, fds, startup, procs, threads, rss, dirty} {
		out = append(out, s.medianMetric())
	}
	out = append(out, p.workloadLayer()...)
	return append(out, p.selfTimes()...)
}

// workloadLayer reports the client side: session opens, generator
// lateness and reconnects.
func (p *phase) workloadLayer() []metric {
	var opens, late []float64
	reconnects := 0
	for _, s := range p.senders {
		for _, d := range s.opens {
			opens = append(opens, ms(d))
		}
		reconnects += s.reconnects
	}
	for _, r := range p.reqs {
		late = append(late, ms(r.late))
	}
	lateP99, _ := percentile(late, 99)
	return []metric{
		{name: "kernel.connect_ms", unit: "ms", value: median(opens), n: len(opens)},
		{name: "workload.send_late_p99_ms", unit: "ms", value: lateP99, n: len(late)},
		{name: "workload.reconnects", unit: "count", value: float64(reconnects), n: len(p.reqs),
			note: "total in the run"},
	}
}

// spanLayers are the layers the traced run wraps calls into, in report
// order: the benchmark's own update loop, the engine, the quiesce barrier, the trace
// analyses, direct memory reads and writes, and instance inspection.
var spanLayers = []string{"bench", "core", "quiesce", "trace", "mem", "program"}

// selfTimes reports each layer's self time per update.
func (p *phase) selfTimes() []metric {
	self := layerSelf(p.spans)
	var out []metric
	for _, l := range spanLayers {
		out = append(out, metric{name: "self." + l + "_ms", unit: "ms",
			value: ms(self[l]) / float64(max(len(p.updates), 1)), n: len(p.updates)})
	}
	return out
}

// overheads reports traced minus untraced for every end-to-end metric
// the two phases both have.
func overheads(untraced, traced []metric) []metric {
	ref := make(map[string]metric)
	for _, m := range untraced {
		ref[m.name] = m
	}
	var out []metric
	for _, m := range traced {
		if r, ok := ref[m.name]; ok {
			out = append(out, metric{name: "overhead." + m.name, unit: m.unit,
				value: m.value - r.value, n: m.n, note: fmt.Sprintf("traced %.4g - untraced %.4g", m.value, r.value)})
		}
	}
	return out
}
