// Command perfbench is the repository's benchmark. It drives the ASAP
// layers from outside, through their public functions, in four
// workloads:
//
//   - deploy: eval.RunScale, a 5×10⁴-node virtual deployment on 2 shards;
//   - figures: world build, the Section 3 routing study and the
//     five-method comparison behind Figs. 11–16 and 18;
//   - calls: a call centre on one virtual clock behind emulated NATs,
//     with live sessions, a hardened voice relay and 5% datagram loss;
//   - live: two callers in a closed loop against a TCP deployment on
//     loopback.
//
// Build and run it from the repository root with perfbench/run.sh. The
// last line of standard output is one JSON object: with --trace 0 it
// holds the end-to-end metrics of BENCHMARK.json, with --trace 1 the
// per-layer metrics of a traced run plus the tracing overhead. The
// lines above it print every named metric of the workload with its
// unit, the failure causes, the exact counts and the machine tag.
// METRICS.md lists every metric and what it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// runConfig is what one workload invocation gets.
type runConfig struct {
	seed    int64
	seconds float64
	// tr is nil in untraced runs.
	tr *tracer
}

// workload runs one workload and returns its result.
type workload func(c runConfig) (*result, error)

var workloads = map[string]workload{
	"deploy":  runDeploy,
	"figures": runFigures,
	"calls":   runCalls,
	"live":    runLive,
}

// gatedMetrics are the end-to-end metrics BENCHMARK.json bounds. Every
// workload reports each of them; workMetric names the workload-specific
// metric that work_per_s stands for.
var gatedMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ok_share", "ratio"},
	{"peak_rss_mb", "MiB"},
	{"work_per_s", "1/s"},
}

// workMetric maps each workload to the named metric work_per_s carries.
var workMetric = map[string]string{
	"deploy":  "deploy_nodes_per_s",
	"figures": "compare_sessions_per_s",
	"calls":   "calls_voice_pkts_per_s",
	"live":    "live_calls_per_s",
}

func main() {
	name := flag.String("workload", "", "workload: deploy, figures, calls or live")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and tracing overhead")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for result files and spans")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload deploy|figures|calls|live --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := bench(*name, run, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// bench runs the workload once untraced, and for a traced run a second
// time with tracing on, each over half the measured time. The gap
// between the two is the tracing overhead.
func bench(name string, run workload, seed int64, seconds float64, traced bool, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	plain := seconds
	if traced {
		plain = seconds / 2
	}
	base, err := run(runConfig{seed: seed, seconds: plain})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	base.finish(name)
	res := base
	var tres *result
	if traced {
		tr := newTracer()
		if tres, err = run(runConfig{seed: seed, seconds: seconds / 2, tr: tr}); err != nil {
			return fmt.Errorf("%s traced: %w", name, err)
		}
		tres.finish(name)
		if err := tr.write(filepath.Join(out, fmt.Sprintf("%s-seed%d.spans.jsonl", name, seed))); err != nil {
			return err
		}
		tres.layer["trace.spans"] = float64(tr.count())
		for _, g := range gatedMetrics {
			b, t := base.gated[g.name], tres.gated[g.name]
			if b != 0 {
				tres.layer["trace.overhead."+g.name] = (t - b) / b
			}
		}
		// The overhead on every named metric goes to the report.
		tres.overhead = map[string]float64{}
		for i, m := range base.named {
			if m.Value != 0 && i < len(tres.named) && tres.named[i].Name == m.Name {
				tres.overhead[m.Name] = (tres.named[i].Value - m.Value) / m.Value
			}
		}
		// Deterministic counts do not depend on tracing.
		base.checkExact(tres)
		tres.checks = append(tres.checks, base.checks...)
		res = tres
	}

	text, doc := res.report(name, seed, base, traced)
	fmt.Print(text)
	if err := os.WriteFile(filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, b2i(traced))),
		doc, 0o644); err != nil {
		return err
	}
	line := map[string]any{
		"correct":   len(res.checks) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.final(traced),
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if len(res.checks) > 0 {
		return fmt.Errorf("output checks failed: %s", strings.Join(res.checks, "; "))
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// namedMetric is an end-to-end metric of a workload, printed by name.
type namedMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples and Tail describe a timing: its sample count and the
	// highest percentile with at least ten samples beyond it.
	Samples int     `json:"samples,omitempty"`
	TailP   float64 `json:"tail_p,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// result is one workload run.
type result struct {
	attempted, failed int
	causes            map[string]int
	setupS            float64
	work              float64
	// rss holds the resident-set peak of each measured iteration.
	rss    []float64
	named  []namedMetric
	layer  map[string]float64
	exact  map[string]int64
	checks []string

	gated map[string]float64
	// overhead is (traced − untraced) ÷ untraced per named metric.
	overhead map[string]float64
}

func newResult() *result {
	return &result{causes: map[string]int{}, layer: map[string]float64{}, exact: map[string]int64{}}
}

func (r *result) fail(cause string) {
	r.failed++
	r.causes[cause]++
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// latency adds the named timings <prefix>_p50_ms, with its sample count
// and tail percentile, and <prefix>_p90_ms.
func (r *result) latency(prefix, unit string, xs []float64) {
	m := namedMetric{Name: prefix + "_p50_ms", Unit: unit, Value: median(xs), Samples: len(xs)}
	m.TailP, m.Tail = tail(xs)
	r.named = append(r.named, m,
		namedMetric{Name: prefix + "_p90_ms", Unit: unit, Value: percentile(xs, 90), Samples: len(xs)})
}

// value adds a named metric that is a single number.
func (r *result) value(name, unit string, v float64) {
	r.named = append(r.named, namedMetric{Name: name, Unit: unit, Value: v})
}

// finish fills the gated metrics common to every workload.
func (r *result) finish(name string) {
	rss := median(r.rss)
	failedShare := 0.0
	if r.attempted > 0 {
		failedShare = float64(r.failed) / float64(r.attempted)
	}
	r.gated = map[string]float64{
		"setup_s":     r.setupS,
		"ok_share":    1 - failedShare,
		"peak_rss_mb": rss,
		"work_per_s":  r.work,
	}
	r.named = append([]namedMetric{
		{Name: "setup_s", Value: r.setupS, Unit: "s"},
		{Name: "failed_share", Value: failedShare, Unit: "ratio"},
		{Name: "peak_rss_mb", Value: rss, Unit: "MiB"},
	}, r.named...)
	if r.attempted == 0 {
		r.checks = append(r.checks, name+": no operation attempted")
	}
}

// checkExact fails the run when a deterministic count differs from the
// same count in other, a run of the same seed.
func (r *result) checkExact(other *result) {
	for _, k := range sortedKeys(r.exact) {
		if v, ok := other.exact[k]; ok && v != r.exact[k] {
			r.checks = append(r.checks, fmt.Sprintf("exact count %s differs between runs of one seed: %d vs %d", k, r.exact[k], v))
		}
	}
}

// final is the metrics object of the last output line.
func (r *result) final(traced bool) map[string]any {
	m := map[string]any{}
	if traced {
		for _, k := range layerMetrics {
			m[k] = map[string]any{"value": r.layer[k], "unit": layerUnit(k)}
		}
		return m
	}
	for _, g := range gatedMetrics {
		m[g.name] = map[string]any{"value": r.gated[g.name], "unit": g.unit}
	}
	return m
}

// report renders every named metric, the failure causes, the exact
// counts and the machine tag, as text and as a result file.
func (r *result) report(name string, seed int64, base *result, traced bool) (string, []byte) {
	var sb strings.Builder
	tag := machineTag(seed)
	fmt.Fprintf(&sb, "# perfbench %s seed=%d traced=%v nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		name, seed, traced, tag.NProc, tag.GOMAXPROCS, tag.GoVersion, tag.CPU)
	fmt.Fprintf(&sb, "# work_per_s = %s\n", workMetric[name])
	// The end-to-end numbers always come from the untraced run.
	for _, m := range base.named {
		fmt.Fprintf(&sb, "%-28s %14.6g %-10s", m.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(&sb, " median of n=%d", m.Samples)
			if m.TailP > 0 {
				fmt.Fprintf(&sb, ", p%g=%.6g", m.TailP, m.Tail)
			}
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "attempted %d, failed %d", base.attempted, base.failed)
	for _, c := range sortedKeys(base.causes) {
		fmt.Fprintf(&sb, ", %q=%d", c, base.causes[c])
	}
	sb.WriteByte('\n')
	for _, k := range sortedKeys(base.exact) {
		fmt.Fprintf(&sb, "exact %-34s %d\n", k, base.exact[k])
	}
	if traced {
		for _, k := range layerMetrics {
			if v, ok := r.layer[k]; ok {
				fmt.Fprintf(&sb, "layer %-40s %14.6g %s\n", k, v, layerUnit(k))
			}
		}
		for _, m := range base.named {
			if v, ok := r.overhead[m.Name]; ok {
				fmt.Fprintf(&sb, "trace overhead %-31s %+.4f\n", m.Name, v)
			}
		}
	}
	for _, c := range r.checks {
		fmt.Fprintf(&sb, "CHECK FAILED: %s\n", c)
	}
	doc := map[string]any{
		"workload": name, "seed": seed, "traced": traced, "machine": tag,
		"end_to_end": base.named, "attempted": base.attempted, "failed": base.failed,
		"failure_causes": base.causes, "exact": base.exact, "checks": r.checks,
	}
	if traced {
		doc["per_layer"] = r.layer
		doc["trace_overhead"] = r.overhead
	}
	b, _ := json.MarshalIndent(doc, "", "  ") // plain maps and slices always marshal
	return sb.String(), b
}

// tag identifies the machine and settings of a run.
type tag struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	Seed       int64  `json:"seed"`
}

func machineTag(seed int64) tag {
	t := tag{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Seed: seed}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				t.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return t
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
