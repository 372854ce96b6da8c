// Command perfbench is the repository benchmark. It runs one workload
// from a seed, drives the MCR engine only through its public calls,
// checks every output, and prints every metric by name with its unit and
// sample count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of an untraced
// run. With -trace 1 the run is split in two halves on the same seed, an
// untraced one and a traced one, and the metrics are the per-layer
// numbers of the traced half, the untraced half's end-to-end metrics that
// are only reported, and the tracing overhead (traced minus untraced) of
// every end-to-end metric. Spans are written to .bench_build/spans/ when a
// traced run ends. perfbench/README.md describes the workloads and every
// metric.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload heap-scan --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its scenario.
var workloads = map[string]func() scenario{
	"heap-scan":    newHeapScan,
	"httpd-live":   newHTTPDLive,
	"vsftpd-churn": newVsftpdChurn,
}

// endToEndNames are the end-to-end metrics of the JSON result of an
// untraced run (BENCHMARK.json "end_to_end"): those every workload has,
// that are never 0, and whose run-to-run spread stays inside their bound
// on a shared VM. Set-up and update cost are CPU time, which the time the
// hypervisor steals from the VM does not inflate; the wall-clock medians
// moved by up to half between runs of the same code as other tenants
// came and went.
var endToEndNames = []string{"setup_s", "commit_cpu_p50_ms", "heap_mb_p50"}

// reportedNames are the other end-to-end metrics. Every run prints the
// ones that apply on its report lines; a traced run also puts the
// untraced half's values in its JSON result as "e2e.<name>". They are
// not in "end_to_end" because wall-clock times swing with other tenants
// of the machine, some workloads lack some of them (no rollbacks or no
// clients), some read 0 on a healthy run, and the downtime tail rests on
// ten samples by definition.
var reportedNames = []string{"setup_wall_s", "downtime_p50_ms", "downtime_tail_ms", "commit_p50_ms",
	"rollback_p50_ms", "client_stall_p50_ms", "req_p50_ms", "req_p99_ms", "req_failed_frac",
	"update_failed_frac"}

// perLayerNames are the metrics of a traced run's JSON result
// (BENCHMARK.json "per_layer"), in report order: the layers' own
// numbers, each layer's self time, the reported end-to-end metrics of
// the untraced half, and the tracing overhead of every end-to-end metric.
func perLayerNames() []string {
	names := []string{
		"core.update_ms", "core.precopy_ms", "core.quiesce_ms", "core.analysis_ms",
		"core.restart_ms", "core.discovery_ms", "core.copy_ms", "core.residual_ms",
		"core.procs_reanalyzed", "core.analyses_reused", "core.rollback_ms",
		"trace.analyze_ms", "trace.discover_ms", "trace.digest_ms", "trace.objects",
		"trace.bytes", "trace.shadow_frac", "trace.pages_adopted", "trace.adopt_frac",
		"checkpoint.precopy_pages", "checkpoint.handoff_pages", "checkpoint.daemon_work_frac",
		"checkpoint.daemon_passes", "checkpoint.shadow_lag_pages",
		"quiesce.converge_ms",
		"reinit.replayed", "reinit.live_executed", "reinit.conflicted", "reinit.fds_collected",
		"program.startup_ms", "program.procs", "program.threads",
		"mem.rss_kb", "mem.dirty_pages",
		"kernel.connect_ms", "workload.send_late_p99_ms", "workload.reconnects",
	}
	for _, l := range spanLayers {
		names = append(names, "self."+l+"_ms")
	}
	for _, n := range reportedNames {
		names = append(names, "e2e."+n)
	}
	for _, n := range append(append([]string(nil), endToEndNames...), reportedNames...) {
		names = append(names, "overhead."+n)
	}
	return names
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: heap-scan, httpd-live or vsftpd-churn")
	seed := fl.Int64("seed", 1, "seed for every generated input")
	seconds := fl.Float64("seconds", 30, "run length: 30-update streams start until this many seconds have passed")
	traced := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	newScenario, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or bad flags\n", *name)
		fl.Usage()
		return 2
	}
	fmt.Fprintf(stdout, "env: nproc=%d GOMAXPROCS=%d go=%s rev=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), revision())
	fmt.Fprintf(stdout, "workload: %s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traced)

	d := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *traced == 0 {
		res, err = untracedRun(stdout, newScenario, *seed, d)
	} else {
		res, err = tracedRun(stdout, newScenario, *name, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finite makes a value JSON-encodable: a latency that is infinite
// because a request failed becomes the largest finite float.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

func untracedRun(w io.Writer, newScenario func() scenario, seed int64, d time.Duration) (result, error) {
	p, err := runPhase(newScenario, seed, d, false)
	if err != nil {
		return result{}, err
	}
	e2e := endToEnd(p)
	printMetrics(w, "", e2e)
	res := outcome(w, p)
	res.Metrics, err = pick(e2e, endToEndNames, false)
	return res, err
}

func tracedRun(w io.Writer, newScenario func() scenario, name string, seed int64, d time.Duration) (result, error) {
	ref, err := runPhase(newScenario, seed, d/2, false)
	if err != nil {
		return result{}, fmt.Errorf("untraced half: %w", err)
	}
	p, err := runPhase(newScenario, seed, d/2, true)
	if err != nil {
		return result{}, fmt.Errorf("traced half: %w", err)
	}
	refE2E, e2e := endToEnd(ref), endToEnd(p)
	printMetrics(w, "untraced ", refE2E)
	printMetrics(w, "traced ", e2e)
	layer := perLayer(p)
	for _, m := range refE2E {
		if slices.Contains(reportedNames, m.name) {
			m.name = "e2e." + m.name
			layer = append(layer, m)
		}
	}
	layer = append(layer, overheads(refE2E, e2e)...)
	printMetrics(w, "layer ", layer)
	if err := writeSpans(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed)), p.spans); err != nil {
		return result{}, err
	}
	a, b := outcome(w, ref), outcome(w, p)
	res := result{Correct: a.Correct && b.Correct, Attempted: a.Attempted + b.Attempted, Failed: a.Failed + b.Failed}
	res.Metrics, err = pick(layer, perLayerNames(), true)
	return res, err
}

// outcome prints every failed output check and counts operations: each
// request and each update is one attempt.
func outcome(w io.Writer, p *phase) result {
	for _, v := range p.violations {
		fmt.Fprintf(w, "check failed: %s\n", v)
	}
	fmt.Fprintf(w, "run: streams=%d updates=%d requests=%d setups=%d\n",
		p.streams, len(p.updates), len(p.reqs), len(p.setups))
	res := result{Correct: len(p.violations) == 0}
	res.Attempted = len(p.reqs) + len(p.updates)
	res.Failed = failedReqs(p.reqs)
	for _, u := range p.updates {
		if u.failedUpdate() {
			res.Failed++
			fmt.Fprintf(w, "update %d failed: release %d->%d injected=%v %s err=%q\n",
				u.i, u.fromSeq, u.target, u.inject, causeOf(u.rep), u.err)
		}
		var down time.Duration
		if u.rep != nil {
			down = u.rep.downtime
		}
		fmt.Fprintf(w, "update %d: release %d->%d injected=%v committed=%v wall=%.3fms downtime=%.3fms heap=%.1fMiB",
			u.i, u.fromSeq, u.target, u.inject, u.committed(), ms(u.wall), ms(down), u.heapMB)
		if p.tr != nil {
			fmt.Fprintf(w, " procs=%d threads=%d", u.procs, u.threads)
		}
		fmt.Fprintln(w)
	}
	return res
}

// pick selects the named metrics for the JSON line. A missing
// end-to-end metric is an error; a missing per-layer metric is a layer
// that did no work and reads 0.
func pick(ms []metric, names []string, zeroMissing bool) (map[string]jsonMetric, error) {
	have := make(map[string]metric, len(ms))
	for _, m := range ms {
		have[m.name] = m
	}
	out := make(map[string]jsonMetric, len(names))
	for _, n := range names {
		m, ok := have[n]
		if !ok {
			if !zeroMissing {
				return nil, fmt.Errorf("metric %s has no samples in this run", n)
			}
			m.unit = e2eUnit(n)
		}
		out[n] = jsonMetric{Value: finite(m.value), Unit: m.unit}
	}
	return out, nil
}

// e2eUnit is the unit of an end-to-end metric, also behind an "e2e." or
// "overhead." prefix, read from its name's suffix.
func e2eUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_frac"):
		return "fraction"
	case strings.HasSuffix(name, "_mb_p50"):
		return "MiB"
	}
	return ""
}

func printMetrics(w io.Writer, prefix string, ms []metric) {
	for _, m := range ms {
		note := ""
		if m.note != "" {
			note = " [" + m.note + "]"
		}
		fmt.Fprintf(w, "%smetric %s = %.6g %s (n=%d)%s\n", prefix, m.name, m.value, m.unit, m.n, note)
	}
}

// revision names the source the benchmark was built from: the git
// revision when run inside a git checkout, otherwise a digest of the Go
// sources and module files under the repository root.
func revision() string {
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just drops out of the digest
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:12]
}
