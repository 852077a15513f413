package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"
)

// percentile is the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tail is the highest of p90, p99 and p99.9 that has at least ten
// samples beyond it, with its value; (0, 0) when none has.
func tail(xs []float64) (float64, float64) {
	best := 0.0
	for _, p := range []float64{90, 99, 99.9} {
		if float64(len(xs))*(100-p)/100 >= 10 {
			best = p
		}
	}
	if best == 0 {
		return 0, 0
	}
	return best, percentile(xs, best)
}

// probe measures the process over the measured segments of a run: the
// runtime's allocations, GC CPU share and scheduling latency, the
// goroutine peak, the resident-set peak of each segment and, in a
// traced deploy run, a CPU profile. Work between segments (set-up,
// checks, forced GCs) is left out.
type probe struct {
	profile bool

	// The current segment.
	before         []metrics.Sample
	stop           chan struct{}
	done           sync.WaitGroup
	rss            float64
	prof           bytes.Buffer
	steal0, total0 uint64
	// steal is the share of the machine's CPU time the hypervisor stole
	// during the last segment.
	steal float64

	// Accumulated over segments.
	alloc, gcCPU, totalCPU float64
	sched                  []uint64
	buckets                []float64
	goPeak                 int
	rssPeaks               []float64
	steals                 []float64
	cpu                    map[string]float64
}

func newProbe(profile bool) *probe {
	return &probe{profile: profile, cpu: map[string]float64{}}
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// begin collects the garbage of the previous segment, so each segment's
// heap and RSS peak do not depend on the one before, then starts
// measuring.
func (p *probe) begin() error {
	settle()
	p.before = readRuntime()
	p.steal0, p.total0 = hostTicks()
	p.rss = 0
	p.stop = make(chan struct{})
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		gs := []metrics.Sample{{Name: "/sched/goroutines:goroutines"}}
		for {
			if v := rssMB(); v > p.rss {
				p.rss = v
			}
			metrics.Read(gs)
			if g := int(gs[0].Value.Uint64()); g > p.goPeak {
				p.goPeak = g
			}
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	if p.profile {
		p.prof.Reset()
		return pprof.StartCPUProfile(&p.prof)
	}
	return nil
}

// end stops measuring the segment and adds it to the totals.
func (p *probe) end() error {
	if p.profile {
		pprof.StopCPUProfile()
		if err := addCPUSamples(p.cpu, p.prof.Bytes()); err != nil {
			return err
		}
	}
	close(p.stop)
	p.done.Wait()
	p.steal = 0
	if steal, total := hostTicks(); total > p.total0 {
		p.steal = float64(steal-p.steal0) / float64(total-p.total0)
	}
	p.steals = append(p.steals, p.steal)
	p.rssPeaks = append(p.rssPeaks, max(p.rss, rssMB()))
	after := readRuntime()
	p.alloc += float64(after[0].Value.Uint64() - p.before[0].Value.Uint64())
	p.gcCPU += after[1].Value.Float64() - p.before[1].Value.Float64()
	p.totalCPU += after[2].Value.Float64() - p.before[2].Value.Float64()
	a, b := p.before[3].Value.Float64Histogram(), after[3].Value.Float64Histogram()
	if p.sched == nil {
		p.sched = make([]uint64, len(b.Counts))
		p.buckets = b.Buckets
	}
	for i := range b.Counts {
		p.sched[i] += b.Counts[i] - a.Counts[i]
	}
	return nil
}

// given is the part of a span of the last segment that the hypervisor
// gave the virtual machine: wall time less the share it stole. Rates
// divide by it, so a neighbour's load on the host does not read as a
// slowdown of the program.
func (p *probe) given(d time.Duration) float64 {
	return d.Seconds() * (1 - p.steal)
}

// finish records the RSS peaks, the steal share and the runtime layer
// metrics, with allocations per op.
func (p *probe) finish(r *result, ops float64) {
	r.rss = p.rssPeaks
	r.value("host_steal_share", "ratio", median(p.steals))
	if ops > 0 {
		r.layer["runtime.alloc_bytes_per_op"] = p.alloc / ops
	}
	if p.totalCPU > 0 {
		r.layer["runtime.gc_cpu_share"] = p.gcCPU / p.totalCPU
	}
	r.layer["runtime.sched_latency_p50_us"] = histMedian(p.sched, p.buckets) * 1e6
	r.layer["runtime.goroutines_peak"] = float64(p.goPeak)
	if p.profile {
		var total float64
		for _, v := range p.cpu {
			total += v
		}
		for k, v := range p.cpu {
			if total > 0 {
				v /= total
			}
			r.layer["cpu_share."+k] = v
		}
	}
}

// histMedian is the median of a runtime histogram's counts.
func histMedian(counts []uint64, buckets []float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen*2 >= total {
			lo, hi := buckets[i], buckets[i+1]
			if math.IsInf(lo, -1) {
				return hi
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return (lo + hi) / 2
		}
	}
	return 0
}

// settle collects garbage. Freed pages stay mapped: returning them to
// the OS would make every iteration fault its memory back in, adding
// page-fault time that varies from run to run.
func settle() {
	runtime.GC()
}

// hostTicks reads the machine-wide CPU time counters of /proc/stat: the
// ticks the hypervisor stole and the ticks of every state together.
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(f) && i <= 8; i++ {
		v, err := strconv.ParseUint(string(f[i]), 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// rssMB reads the current resident set from /proc/self/statm.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(string(f[1]), 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
