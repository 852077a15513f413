package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"asap/internal/asgraph"
	"asap/internal/core"
	"asap/internal/nat"
	"asap/internal/session"
	"asap/internal/sim"
	"asap/internal/transport"
	"asap/internal/transport/udp"
)

// calls: a call centre on one sim.Clock, built from core's public API.
// A bootstrap, two relay-cluster nodes and callPairs caller/callee pairs
// whose NAT boxes cycle through the 4×4 NAT matrix, so 3 of every 16
// pairings are forced onto the voice relay. The relay is a hardened
// udp.RelayServer (Secret, FlowTTL) and Chaos drops callLoss of all
// public datagrams, seeded. Calls arrive on a fixed virtual schedule
// (open loop); each runs SetupCall, SetupMedia, a monitored session
// with the media attached, and voice both ways at 50 pkt/s. The best
// relay node is closed mid-run, so its sessions fail over.
const (
	callPairs    = 64
	callRelays   = 2 // relay-cluster nodes r1 and r2
	callsPerPair = 2
	callStart    = 2 * time.Second
	callStagger  = 20 * time.Millisecond
	callPeriod   = 9 * time.Second // dial-to-dial per pair: ladder worst case + voice + teardown
	callVoice    = 200             // packets each way per call: 4 s at 50 pkt/s
	callPktEvery = 20 * time.Millisecond
	callLoss     = 0.05
	callFlowTTL  = 5 * time.Second
	// callKillAt closes relay node r1 while the first calls talk.
	callKillAt = callStart + 5*time.Second
)

var callSecret = []byte("perfbench relay key")

// callGraph: AS100 (callers) and AS200 (callees) are far apart; AS300
// (relay r1) is multihomed under both transits and AS10 (relay r2) is
// the callers' transit — the best and second-best relay clusters.
func callGraph() *asgraph.Graph {
	b := asgraph.NewBuilder()
	b.AddEdge(1, 2, asgraph.RelP2P)
	b.AddEdge(10, 1, asgraph.RelC2P)
	b.AddEdge(20, 2, asgraph.RelC2P)
	b.AddEdge(100, 10, asgraph.RelC2P)
	b.AddEdge(200, 20, asgraph.RelC2P)
	b.AddEdge(300, 10, asgraph.RelC2P)
	b.AddEdge(300, 20, asgraph.RelC2P)
	return b.Build()
}

// callAS places control-plane addresses: c* callers, d* callees, r1, r2.
func callAS(a transport.Addr) int {
	switch {
	case a == "r1":
		return 300
	case a == "r2":
		return 10
	case len(a) > 0 && a[0] == 'c':
		return 100
	case len(a) > 0 && a[0] == 'd':
		return 200
	}
	return 0 // bootstrap
}

// callOneWay is the control-plane one-way latency: the direct path is
// latent (200 ms RTT against LatT 150 ms), r1 is 20 ms from both ends,
// r2 40 ms.
func callOneWay(from, to transport.Addr) time.Duration {
	a, b := callAS(from), callAS(to)
	if a > b {
		a, b = b, a
	}
	switch {
	case a == 0 || b == 0:
		return 5 * time.Millisecond
	case a == b:
		return time.Millisecond
	case a == 100 && b == 200:
		return 100 * time.Millisecond
	case b == 300:
		return 10 * time.Millisecond
	case a == 10:
		return 20 * time.Millisecond
	}
	return 15 * time.Millisecond
}

type callPair struct {
	caller, callee *core.Node
	mgr            *session.Manager
	drv            *tracedDriver
}

// callWorld is one call centre.
type callWorld struct {
	clk       *sim.Clock
	ctrl, pub *transport.Mem
	chaos     *transport.Chaos
	rly       *udp.RelayServer
	relays    []*core.Node
	pairs     []*callPair
	writes    atomic.Int64
	tr        *tracer
	boxes     []*nat.Box
	ctrlCalls *atomic.Int64
}

// callStats is what one round observed.
type callStats struct {
	attempted     int
	causes        map[string]int
	setupMS, mos  []float64
	sent, got     int64
	rungs         map[udp.PathKind]int
	switches      int
	failovers     int
	events        uint64
	forwarded     int64
	liveFlows     int
	dropped, pkts int
}

func buildCallWorld(seed int64, tr *tracer) (*callWorld, error) {
	w := &callWorld{clk: sim.NewClock(), tr: tr}
	w.ctrl = transport.NewMem()
	w.ctrl.Sched = w.clk
	w.ctrl.Latency = callOneWay
	w.pub = transport.NewMem()
	w.pub.Sched = w.clk
	w.pub.Latency = func(from, to transport.Addr) time.Duration { return 5 * time.Millisecond }
	w.chaos = transport.NewChaos(nil, seed)
	w.chaos.Sched = w.clk
	w.chaos.DropDefault(callLoss)
	public := w.chaos.PacketNetwork(w.pub)

	var ctrl transport.Transport = w.ctrl
	if tr != nil {
		w.ctrlCalls = new(atomic.Int64)
		ctrl = &countingTransport{Transport: w.ctrl, calls: w.ctrlCalls}
	}
	// pubNet is the public side as a datagram layer sees it: in a traced
	// run, its handlers are spans and its writes are counted.
	pubNet := func(spanName string) transport.PacketNetwork {
		if tr == nil {
			return public
		}
		return &tracedNet{inner: public, t: tr, spanName: spanName, writes: &w.writes}
	}

	var err error
	w.clk.RunTask(func() {
		var stun *udp.STUNServer
		if stun, err = udp.NewSTUNServer(pubNet(""), "stun.example:3478"); err != nil {
			return
		}
		if w.rly, err = udp.NewRelayServerWith(pubNet("udp.relay_forward"), "relay.example:5000", w.clk,
			udp.RelayConfig{FlowTTL: callFlowTTL, Secret: callSecret}); err != nil {
			return
		}
		var bs *core.Bootstrap
		if bs, err = core.NewBootstrap(ctrl, "bs", core.BootstrapConfig{
			Graph: callGraph(),
			K:     4,
			Prefixes: []core.PrefixOrigin{
				{Prefix: "10.100.0.0/16", ASN: 100},
				{Prefix: "10.200.0.0/16", ASN: 200},
				{Prefix: "10.30.0.0/16", ASN: 300},
				{Prefix: "10.10.0.0/16", ASN: 10},
			},
			Sched: w.clk,
		}); err != nil {
			return
		}
		params := core.DefaultParams()
		params.LatT = 150 * time.Millisecond
		mk := func(addr transport.Addr, ip string, node int64) (*core.Node, error) {
			return core.NewNode(ctrl, addr, core.NodeConfig{
				IP: ip, Bootstrap: bs.Addr(), Params: params, Sched: w.clk,
				Seed: sim.SubSeed(seed, sim.StringLabel(string(addr)), uint64(node)),
			})
		}
		for i, ip := range []string{"10.30.0.1", "10.10.0.1"} {
			var n *core.Node
			if n, err = mk(transport.Addr(fmt.Sprintf("r%d", i+1)), ip, int64(i)); err != nil {
				return
			}
			w.relays = append(w.relays, n)
		}
		for i := 0; i < callPairs; i++ {
			p := &callPair{}
			if p.caller, err = mk(transport.Addr(fmt.Sprintf("c%d", i)), fmt.Sprintf("10.100.%d.%d", i/200, i%200+1), int64(i)); err != nil {
				return
			}
			if p.callee, err = mk(transport.Addr(fmt.Sprintf("d%d", i)), fmt.Sprintf("10.200.%d.%d", i/200, i%200+1), int64(i)); err != nil {
				return
			}
			// Pair i sits behind NAT types (i%4, i/4%4): the 4×4 matrix.
			for side, n := range []*core.Node{p.caller, p.callee} {
				typ := nat.Types[i%4]
				if side == 1 {
					typ = nat.Types[i/4%4]
				}
				box := nat.New(typ, pubNet("nat.inbound"), fmt.Sprintf("198.%d.%d.%d", 18+side, i/250, i%250+1), 40000)
				w.boxes = append(w.boxes, box)
				var mediaNet transport.PacketNetwork = box
				if tr != nil {
					mediaNet = &tracedNet{inner: box, t: tr, spanName: "udp.flow_rx"}
				}
				if err = n.EnableMedia(core.MediaConfig{
					Net: mediaNet, ListenHost: fmt.Sprintf("192.168.%d.%d", side, i+1), BasePort: 5000,
					STUN: stun.Addr(), Relay: w.rly.Addr(), RelayKey: callSecret,
					KeepaliveInterval: time.Second,
				}); err != nil {
					return
				}
			}
			w.pairs = append(w.pairs, p)
		}
		for _, n := range w.relays {
			if err = n.RefreshCloseSet(); err != nil {
				return
			}
		}
		for _, p := range w.pairs {
			if err = p.caller.RefreshCloseSet(); err != nil {
				return
			}
			if err = p.callee.RefreshCloseSet(); err != nil {
				return
			}
			if err = w.startManager(p); err != nil {
				return
			}
		}
	})
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *callWorld) startManager(p *callPair) error {
	cfg := session.DefaultConfig()
	cfg.ProbeInterval = 500 * time.Millisecond
	cfg.KeepaliveInterval = 250 * time.Millisecond
	cfg.KeepaliveMisses = 2
	cfg.KeepaliveBackoff = 100 * time.Millisecond
	cfg.Backups = 2
	var drv session.Driver = p.caller
	if w.tr != nil {
		p.drv = &tracedDriver{inner: p.caller, t: w.tr, clk: w.clk, key: string(p.caller.Addr())}
		drv = p.drv
	}
	callee := p.callee.Addr()
	// No flow opener: session.Manager calls it with its mutex held, and
	// on a sim.Clock the opener's blocking EnsureFlow parks the task that
	// holds the lock, so the next tick blocks the runner for good. After
	// a failover the keepalives fall back to plain liveness instead.
	mgr, err := session.NewManager(cfg, w.clk, drv,
		// As asapd does on relay-failed: forget the dead relay's flow.
		session.WithEventLog(func(e session.Event) {
			if e.Kind == "relay-failed" {
				p.caller.DropFlow(e.Relay, callee)
			}
		}))
	if err != nil {
		return err
	}
	p.mgr = mgr
	mgr.Start()
	return nil
}

func (w *callWorld) close() {
	for _, p := range w.pairs {
		if p.mgr != nil {
			p.mgr.Close()
		}
		p.caller.Close()
		p.callee.Close()
	}
	for _, n := range w.relays {
		n.Close()
	}
	for _, b := range w.boxes {
		_ = b.Close()
	}
	_ = w.ctrl.Close()
	_ = w.pub.Close()
}

// callOutcome is one call's result; cause is empty on success.
type callOutcome struct {
	cause     string
	setup     time.Duration
	mos       float64
	sent, got int64
	rung      udp.PathKind
	switches  int
	failovers int
}

// run plays the call schedule and returns what it observed.
func (w *callWorld) run() *callStats {
	st := &callStats{causes: map[string]int{}, rungs: map[udp.PathKind]int{}}
	outs := make([]callOutcome, callPairs*callsPerPair)
	w.clk.RunTask(func() {
		t0 := w.clk.Now()
		var fns []func()
		for i := range w.pairs {
			for k := 0; k < callsPerPair; k++ {
				i, k := i, k
				fns = append(fns, func() {
					w.clk.Sleep(t0 + callStart + time.Duration(i)*callStagger + time.Duration(k)*callPeriod - w.clk.Now())
					outs[i*callsPerPair+k] = w.call(w.pairs[i], fmt.Sprintf("call-%d-%d", i, k))
				})
			}
		}
		fns = append(fns, func() {
			w.clk.Sleep(t0 + callKillAt - w.clk.Now())
			r1 := w.relays[0]
			w.ctrl.Unbind(r1.Addr())
			r1.Close()
		})
		w.clk.Join(0, fns...)
		// Every flow is closed; unbinds the chaos dropped expire by TTL.
		w.clk.Sleep(callFlowTTL + callFlowTTL/2 + time.Second)
		st.liveFlows = w.rly.LiveFlows()
	})
	for _, o := range outs {
		st.attempted++
		if o.cause != "" {
			st.causes[o.cause]++
			continue
		}
		st.setupMS = append(st.setupMS, float64(o.setup)/float64(time.Millisecond))
		st.mos = append(st.mos, o.mos)
		st.sent += o.sent
		st.got += o.got
		st.rungs[o.rung]++
		st.switches += o.switches
		st.failovers += o.failovers
	}
	st.events = w.clk.Executed()
	st.forwarded = w.rly.Forwarded()
	cs := w.chaos.Stats()
	st.dropped, st.pkts = cs.Dropped, cs.Packets
	return st
}

// call places one call: SetupCall, a relay flow for the session,
// SetupMedia, then a monitored session while both sides talk.
func (w *callWorld) call(p *callPair, key string) callOutcome {
	var o callOutcome
	dial := w.clk.Now()
	caller, callee := p.caller, p.callee
	choice, err := caller.SetupCall(callee.Addr())
	if w.tr != nil {
		w.tr.record("core.setup_call", key, "virtual", dial, w.clk.Now(), 0)
	}
	if err != nil {
		o.cause = "call setup failed"
		return o
	}
	// The session's relay path: the best ranked relay whose flow opens
	// (a closed relay node stays in close sets until they refresh).
	active := session.Candidate{Est: choice.EstRTT}
	var backups []session.Candidate
	var flowID uint64
	if choice.Relay != "" {
		found := false
		for _, c := range choice.Ranked {
			if found {
				backups = append(backups, session.Candidate{Relay: c.Relay, Est: c.Est})
				continue
			}
			if id, err := caller.EnsureFlow(c.Relay, callee.Addr()); err == nil {
				active, flowID, found = session.Candidate{Relay: c.Relay, Est: c.Est}, id, true
			}
		}
		if !found {
			o.cause = "no relay flow opens"
			return o
		}
	}
	m0 := w.clk.Now()
	mc, err := caller.SetupMedia(callee.Addr())
	if err != nil {
		o.cause = "media setup failed"
		return o
	}
	defer func() { _ = mc.Close() }()
	cmc := callee.MediaCallWith(caller.Addr())
	if cmc == nil {
		o.cause = "callee holds no media call"
		return o
	}
	defer func() { _ = cmc.Close() }()
	if _, err := cmc.WaitEstablished(5 * time.Second); err != nil {
		o.cause = "callee media not established"
		return o
	}
	if w.tr != nil {
		w.tr.record("core.setup_media", key, "virtual", m0, w.clk.Now(), 0)
	}
	o.setup, o.rung = w.clk.Now()-dial, mc.Path()

	s, err := p.mgr.Open(callee.Addr(), active, backups, flowID)
	if err != nil {
		o.cause = "session open failed"
		return o
	}
	s.AttachMedia(mc.MediaSource())
	payload := make([]byte, 20) // one G.729A 20 ms frame
	// One task runs at a time on the clock, so both talkers may count
	// into o.sent.
	talk := func(f *udp.Flow) func() {
		return func() {
			for n := 0; n < callVoice; n++ {
				t0 := time.Now()
				if f.SendVoice(payload) == nil {
					o.sent++
				}
				if w.tr != nil {
					w.tr.wall("udp.send_voice", key, t0, 0)
				}
				w.clk.Sleep(callPktEvery)
			}
		}
	}
	w.clk.Join(2, talk(mc.Flow()), talk(cmc.Flow()))
	w.clk.Sleep(100 * time.Millisecond) // let the last packets land
	o.got = mc.Flow().Stats().Packets + cmc.Flow().Stats().Packets
	rep, err := p.mgr.CloseSession(s.ID())
	if err != nil {
		o.cause = "session close failed"
		return o
	}
	o.mos, o.switches, o.failovers = rep.MeanMOS, rep.Switches, rep.Failovers
	return o
}

// countingTransport counts control-plane Calls.
type countingTransport struct {
	transport.Transport
	calls *atomic.Int64
}

func (t *countingTransport) Call(to transport.Addr, req *transport.Message) (*transport.Message, error) {
	t.calls.Add(1)
	return t.Transport.Call(to, req)
}

func runCalls(c runConfig) (*result, error) {
	r := newResult()
	var setups, rates []float64
	var first *callStats
	var firstMsgs int64
	var drvs []*tracedDriver
	var writes int64
	pr := newProbe(false)
	begin := time.Now()
	ops := 0.0
	for round := 0; round < 3 || time.Since(begin).Seconds() < c.seconds; round++ {
		settle()
		start := time.Now()
		w, err := buildCallWorld(c.seed, c.tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		var msgs0 int64
		if w.ctrlCalls != nil {
			msgs0 = w.ctrlCalls.Load()
		}
		if err := pr.begin(); err != nil {
			return nil, err
		}
		start = time.Now()
		st := w.run()
		d := time.Since(start)
		if err := pr.end(); err != nil {
			return nil, err
		}
		rates = append(rates, float64(st.got)/pr.given(d))
		ops += float64(st.sent)
		var msgs int64
		if w.ctrlCalls != nil {
			msgs = w.ctrlCalls.Load() - msgs0
		}
		writes += w.writes.Load()
		for _, p := range w.pairs {
			if p.drv != nil {
				drvs = append(drvs, p.drv)
			}
		}
		w.close()
		r.check(st.liveFlows == 0, "calls: relay holds %d live flows after every flow closed", st.liveFlows)
		if first == nil {
			first, firstMsgs = st, msgs
			continue
		}
		r.check(st.events == first.events, "calls: sim.events differs between rounds of one seed: %d vs %d", st.events, first.events)
		r.check(st.got == first.got, "calls: delivered packets differ between rounds of one seed: %d vs %d", st.got, first.got)
		r.check(st.forwarded == first.forwarded, "calls: udp.relay_forwarded differs between rounds of one seed: %d vs %d", st.forwarded, first.forwarded)
		r.check(msgs == firstMsgs, "calls: control messages differ between rounds of one seed: %d vs %d", msgs, firstMsgs)
	}
	pr.finish(r, ops)
	r.setupS = median(setups)
	r.work = median(rates)
	st := first
	r.attempted = st.attempted
	for _, cause := range sortedKeys(st.causes) {
		r.failed += st.causes[cause]
		r.causes[cause] = st.causes[cause]
	}
	r.value("calls_voice_pkts_per_s", "pkt/s", r.work)
	r.latency("calls_setup", "virtual_ms", st.setupMS)
	delivered := 0.0
	if st.sent > 0 {
		delivered = float64(st.got) / float64(st.sent)
	}
	r.value("calls_delivered_share", "ratio", delivered)
	r.named = append(r.named, namedMetric{Name: "calls_mos_p10", Unit: "MOS", Value: percentile(st.mos, 10), Samples: len(st.mos)})

	r.exact["sim.events"] = int64(st.events)
	r.exact["calls.delivered_pkts"] = st.got
	r.exact["udp.relay_forwarded"] = st.forwarded
	r.exact["session.failovers"] = int64(st.failovers)
	if firstMsgs > 0 {
		r.exact["calls.ctrl_messages"] = firstMsgs
	}
	r.layer["sim.events"] = float64(st.events)
	r.layer["sim.shards"] = 1
	r.layer["sim.events_per_node"] = float64(st.events) / float64(2*callPairs+callRelays)
	r.layer["udp.relay_forwarded"] = float64(st.forwarded)
	r.layer["session.switches"] = float64(st.switches)
	r.layer["session.failovers"] = float64(st.failovers)
	if st.pkts > 0 {
		r.layer["transport.chaos_dropped_share"] = float64(st.dropped) / float64(st.pkts)
	}
	n := 0
	for _, v := range st.rungs {
		n += v
	}
	if n > 0 {
		r.layer["udp.rung_share.direct"] = float64(st.rungs[udp.PathDirect]) / float64(n)
		r.layer["udp.rung_share.punched"] = float64(st.rungs[udp.PathPunched]) / float64(n)
		r.layer["udp.rung_share.relayed"] = float64(st.rungs[udp.PathRelayed]) / float64(n)
	}
	if c.tr != nil {
		wall := 0.0
		for _, x := range rates {
			wall += float64(st.got) / x
		}
		r.layer["sim.ns_per_event"] = wall / float64(len(rates)) * 1e9 / float64(st.events)
		r.layer["udp.send_voice_ns_p50"] = c.tr.p50("udp.send_voice")
		r.layer["udp.relay_forward_ns_p50"] = c.tr.p50("udp.relay_forward")
		r.layer["udp.flow_rx_ns_p50"] = c.tr.p50("udp.flow_rx")
		r.layer["nat.inbound_ns_p50"] = c.tr.p50("nat.inbound")
		var ka, probes, paths int64
		for _, d := range drvs {
			ka += d.keepalives.Load()
			probes += d.probeCalls.Load()
			paths += d.paths.Load()
			r.check(d.scalar.Load() == 0, "calls: session manager fell back to scalar probes")
		}
		rounds := int64(len(rates))
		r.layer["session.keepalives"] = float64(ka / rounds)
		r.layer["session.probe_calls"] = float64(probes / rounds)
		if probes > 0 {
			r.layer["session.paths_per_probe_call"] = float64(paths) / float64(probes)
		}
		r.layer["session.probe_virtual_ms_p50"] = c.tr.p50("session.probe") / 1e6
		if st.got > 0 {
			r.layer["transport.datagrams_per_voice_pkt"] = float64(writes) / float64(rounds) / float64(st.got)
		}
	}
	return r, nil
}
