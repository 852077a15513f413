package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"

	"asap/internal/core"
	"asap/internal/eval"
	"asap/internal/netmodel"
	"asap/internal/sim"
)

// figures: the researcher's job of regenerating the paper's figures —
// world build, the Section 3 routing study (Figs. 2–3) and the
// DEDI/RAND/MIX/ASAP/OPT comparison over the latent sessions (Figs.
// 11–16, 18) on 2 workers. Fig. 17's scaled copy is left out: it is a
// second world build. A batch job, reported as work per second at the
// stated input size.
const (
	figSessions   = 20_000 // twice eval.Small's, so the comparison is a good part of a cycle
	figPairSample = 400    // sessions sampled for the Fig. 2(b)/3(a) sweep
	figWorkers    = 2
	// figRefSeed is the comparison seed the reference digest was taken at.
	figRefSeed = 1
)

// figuresRef is the SHA-256 of the rendered figures for eval.Small at
// comparison seed figRefSeed. Regenerate it only for a change that is
// meant to move the figures.
//
//go:embed figures.sha256
var figuresRef string

// figMethod wraps an eval.Method to time each run and keep its errors;
// RunComparison drops a failed (method, session) run silently.
type figMethod struct {
	eval.Method
	tr *tracer

	mu     sync.Mutex
	causes map[string]int
}

func (m *figMethod) Run(s eval.Session, rng *sim.RNG) (eval.Outcome, error) {
	start := time.Now()
	o, err := m.Method.Run(s, rng)
	if m.tr != nil {
		m.tr.wall("eval.method_run."+m.Name(), fmt.Sprintf("%d-%d", s.A, s.B), start, 0)
	}
	if err != nil {
		m.mu.Lock()
		m.causes[err.Error()]++
		m.mu.Unlock()
	}
	return o, err
}

// figCycle is one pass over a fresh world, so the netmodel cache starts
// cold for every routing study.
type figCycle struct {
	setup, routing, compare time.Duration
	pairs, sessions         int
	digest                  string
	messages                map[string]float64 // mean per session
	messageTotals           map[string]int64
	buildMsgs               int64
	methods                 []*figMethod
}

func runFigCycle(seed int64, tr *tracer, pr *probe) (*figCycle, error) {
	fc := &figCycle{messages: map[string]float64{}, messageTotals: map[string]int64{}}
	start := time.Now()
	w, err := eval.BuildWorld(eval.Small)
	if err != nil {
		return nil, err
	}
	built := time.Since(start)
	sess := w.RandomSessions(figSessions)
	latent := w.LatentSessions(sess, netmodel.QualityRTT)
	fc.setup = time.Since(start)

	if err := pr.begin(); err != nil {
		return nil, err
	}
	start = time.Now()
	st := eval.RunRoutingStudy(w, sess, figPairSample, netmodel.QualityRTT, 0, figWorkers)
	fc.routing = time.Since(start)
	fc.pairs = len(st.PairDirectMs)

	start = time.Now()
	params := core.DefaultParams()
	params.K = w.CalibrateK(sess, netmodel.QualityRTT, 0.9, 20000)
	sys, err := w.NewASAP(params)
	if err != nil {
		return nil, err
	}
	d, rnd, mix, err := w.NewBaselines(80, 200, 40, 120)
	if err != nil {
		return nil, err
	}
	for _, m := range []eval.Method{
		eval.NewBaselineMethod(d, w.Engine),
		eval.NewBaselineMethod(rnd, w.Engine),
		eval.NewBaselineMethod(mix, w.Engine),
		eval.NewASAPMethod(sys, w.Engine),
		eval.NewOPTMethod(w.Engine),
	} {
		fc.methods = append(fc.methods, &figMethod{Method: m, tr: tr, causes: map[string]int{}})
	}
	fc.setup += time.Since(start)
	methods := make([]eval.Method, len(fc.methods))
	for i, m := range fc.methods {
		methods[i] = m
	}

	start = time.Now()
	cmp := eval.RunComparison(methods, latent, seed, figWorkers)
	fc.compare = time.Since(start)
	if err := pr.end(); err != nil {
		return nil, err
	}
	fc.sessions = len(latent)

	var out strings.Builder
	for _, s := range []string{st.FormatFig2a(), st.FormatFig2b(), st.FormatFig3a(), st.FormatFig3b(netmodel.QualityRTT),
		cmp.FormatFig11and12(), cmp.FormatFig13and14(), cmp.FormatFig15and16(), cmp.FormatFig18()} {
		out.WriteString(s)
		out.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(out.String()))
	fc.digest = hex.EncodeToString(sum[:])
	for _, name := range cmp.Order {
		series := cmp.MessageSeries(name)
		fc.messages[name] = mean(series)
		for _, m := range series {
			fc.messageTotals[name] += int64(m)
		}
	}
	fc.buildMsgs = sys.BuildMessages()

	if tr != nil {
		tr.record("eval.build_world", "", "wall", 0, built, 0)
		// Direct timing of the layers the comparison drives, on the
		// latent sessions, after the figures are rendered.
		for i, s := range latent {
			if i == 200 {
				break
			}
			t0 := time.Now()
			if _, err := sys.SelectCloseRelayWith(s.A, s.B, w.Prober); err == nil {
				tr.wall("core.select_close_relay", "", t0, 0)
			}
			t0 = time.Now()
			w.Engine.OptimalOneHop(s.A, s.B)
			tr.wall("overlay.optimal_onehop", "", t0, 0)
		}
	}
	return fc, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func runFigures(c runConfig) (*result, error) {
	r := newResult()
	var setups, pairRates, sessRates []float64
	var first *figCycle
	pr := newProbe(false)
	begin := time.Now()
	ops := 0
	// In an untraced run cycle 0 runs at the reference seed and is
	// checked against the reference digest; the other cycles run at the
	// workload seed and must repeat each other exactly.
	cycle, cycles := 0, 3
	if c.tr != nil {
		cycle, cycles = 1, 2
	}
	for ; cycle < cycles || time.Since(begin).Seconds() < c.seconds; cycle++ {
		seed := c.seed
		if cycle == 0 {
			seed = figRefSeed
		}
		settle()
		fc, err := runFigCycle(seed, c.tr, pr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, fc.setup.Seconds())
		pairRates = append(pairRates, float64(fc.pairs)/pr.given(fc.routing))
		sessRates = append(sessRates, float64(fc.sessions)/pr.given(fc.compare))
		ops += fc.sessions
		if cycle == 0 {
			r.check(fc.digest == strings.TrimSpace(figuresRef),
				"figures: rendered figures at seed %d hash to %s, reference %s", figRefSeed, fc.digest, strings.TrimSpace(figuresRef))
			continue
		}
		if first == nil {
			first = fc
			for _, m := range fc.methods {
				r.attempted += fc.sessions
				for cause, n := range m.causes {
					r.failed += n
					r.causes[m.Name()+": "+cause] += n
				}
			}
			continue
		}
		r.check(fc.digest == first.digest, "figures: rendered figures differ between cycles of one seed")
		for name, v := range fc.messageTotals {
			r.check(v == first.messageTotals[name], "figures: %s messages differ between cycles of one seed: %d vs %d", name, v, first.messageTotals[name])
		}
	}
	pr.finish(r, float64(ops))
	r.setupS = median(setups)
	r.work = median(sessRates)
	r.value("routing_pairs_per_s", "pairs/s", median(pairRates))
	r.value("compare_sessions_per_s", "sessions/s", r.work)
	r.exact["figures.latent_sessions"] = int64(first.sessions)
	r.exact["figures.routing_pairs"] = int64(first.pairs)
	r.exact["core.closeset_build_msgs"] = first.buildMsgs
	for name, v := range first.messages {
		r.exact["eval.messages."+name] = first.messageTotals[name]
		if name != "OPT" {
			r.layer["eval.messages_per_session."+name] = v
		}
	}
	r.layer["core.closeset_build_msgs"] = float64(first.buildMsgs)
	if c.tr != nil {
		for _, m := range first.methods {
			r.layer["eval.method_run_us_p50."+m.Name()] = c.tr.p50("eval.method_run."+m.Name()) / 1e3
		}
		r.layer["core.select_close_relay_us_p50"] = c.tr.p50("core.select_close_relay") / 1e3
		r.layer["overlay.optimal_onehop_us_p50"] = c.tr.p50("overlay.optimal_onehop") / 1e3
		r.layer["eval.build_world_s"] = c.tr.p50("eval.build_world") / 1e9
	}
	return r, nil
}
