package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"asap/internal/asgraph"
	"asap/internal/core"
	"asap/internal/transport"
)

// live: one process on loopback TCP, the deployment examples/livenet
// runs — a bootstrap, a relay peer and two caller/callee pairs over
// transport.NewTCP. Two callers run a closed loop (one call in flight
// each, nproc = 2): each call is one SetupCall and liveBatches voice
// batches through a forced relay. Loopback paths are sub-ms, so LatT
// sits below loopback RTT and every setup takes the latent branch:
// close-set fetch plus MsgCallSetup. This is the only workload that
// encodes messages and dials sockets (TCP.Call dials per call).
const (
	liveCallers = 2
	liveBatches = 10
	liveSetups  = 9  // deployments built per run; setup_s is their median
	liveWarmup  = 20 // untimed calls per caller before the timed phase
)

var livePayload = bytes.Repeat([]byte{0x5a}, 200) // one batch of voice frames

type liveWorld struct {
	tcp              *transport.TCP
	relay            *core.Node
	callers, callees []*core.Node
}

// liveTraceState is shared by every traced transport of one run.
type liveTraceState struct {
	handled       sync.Map
	calls, frames atomic.Int64
}

func liveGraph() *asgraph.Graph {
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

func newLiveWorld(seed int64, tr *tracer, ts *liveTraceState) (*liveWorld, error) {
	w := &liveWorld{tcp: transport.NewTCP()}
	var plain, relayTr transport.Transport = w.tcp, w.tcp
	if tr != nil {
		plain = &tracedTransport{inner: w.tcp, t: tr, handled: &ts.handled, calls: &ts.calls, frames: &ts.frames}
		relayTr = &tracedTransport{inner: w.tcp, t: tr, relay: true, handled: &ts.handled, calls: &ts.calls, frames: &ts.frames}
	}
	bs, err := core.NewBootstrap(plain, "127.0.0.1:0", core.BootstrapConfig{
		Graph: liveGraph(),
		K:     4,
		Prefixes: []core.PrefixOrigin{
			{Prefix: "10.100.0.0/16", ASN: 100},
			{Prefix: "10.200.0.0/16", ASN: 200},
			{Prefix: "10.30.0.0/16", ASN: 300},
		},
	})
	if err != nil {
		_ = w.tcp.Close()
		return nil, err
	}
	params := core.DefaultParams()
	params.LatT = time.Microsecond
	var all []*core.Node
	mk := func(t transport.Transport, ip string, kbps float64) (*core.Node, error) {
		n, err := core.NewNode(t, "127.0.0.1:0", core.NodeConfig{
			IP: ip, Bootstrap: bs.Addr(), Params: params, Seed: seed,
			Nodal: transport.NodalInfo{BandwidthKbps: kbps, CPUScore: 1},
			// LatT is far below loopback RTT; pings still need time.
			PingTimeout: time.Second,
		})
		if err == nil {
			all = append(all, n)
		}
		return n, err
	}
	if w.relay, err = mk(relayTr, "10.30.0.1", 10000); err == nil {
		for i := 0; i < liveCallers && err == nil; i++ {
			var a, b *core.Node
			if a, err = mk(plain, fmt.Sprintf("10.100.0.%d", i+1), 1500); err != nil {
				break
			}
			if b, err = mk(plain, fmt.Sprintf("10.200.0.%d", i+1), 1500); err != nil {
				break
			}
			w.callers, w.callees = append(w.callers, a), append(w.callees, b)
		}
	}
	for _, n := range all {
		if err != nil {
			break
		}
		err = n.RefreshCloseSet()
	}
	if err != nil {
		w.closeNodes(all)
		return nil, err
	}
	return w, nil
}

func (w *liveWorld) closeNodes(ns []*core.Node) {
	for _, n := range ns {
		n.Close()
	}
	_ = w.tcp.Close()
}

func (w *liveWorld) close() {
	w.closeNodes(append(append([]*core.Node{w.relay}, w.callers...), w.callees...))
}

// liveCall is one call: SetupCall, then liveBatches relayed voice
// batches. It returns the failure cause, "" on success.
func (w *liveWorld) liveCall(i int, seq uint32, tr *tracer, callID uint64) string {
	caller, callee := w.callers[i], w.callees[i]
	t0 := time.Now()
	choice, err := caller.SetupCall(callee.Addr())
	if tr != nil {
		tr.wall("core.setup_call", fmt.Sprint(callID), t0, callID)
	}
	if err != nil {
		return "setup: " + err.Error()
	}
	forced := &core.RelayChoice{Relay: w.relay.Addr(), EstRTT: choice.EstRTT}
	for b := 0; b < liveBatches; b++ {
		t1 := time.Now()
		err := caller.SendVoice(forced, callee.Addr(), livePayload, seq*liveBatches+uint32(b))
		if tr != nil {
			tr.wall("core.send_voice_relayed", fmt.Sprint(callID), t1, callID)
		}
		if err != nil {
			return "voice batch not acked"
		}
	}
	return ""
}

func runLive(c runConfig) (*result, error) {
	r := newResult()
	ts := &liveTraceState{}
	var setups []float64
	var w *liveWorld
	for i := 0; i < liveSetups; i++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		var err error
		if w, err = newLiveWorld(c.seed, c.tr, ts); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()
	r.setupS = median(setups)

	// Warm-up, then the timed closed loop.
	for i := range w.callers {
		for k := 0; k < liveWarmup; k++ {
			if cause := w.liveCall(i, uint32(k), nil, 0); cause != "" {
				return nil, fmt.Errorf("warm-up call: %s", cause)
			}
		}
	}
	var received []int
	for _, n := range w.callees {
		received = append(received, n.ReceivedBytes())
	}
	calls0, frames0 := ts.calls.Load(), ts.frames.Load()

	type loopOut struct {
		lat    []float64
		causes []string
		ok     int
	}
	outs := make([]loopOut, len(w.callers))
	pr := newProbe(false)
	if err := pr.begin(); err != nil {
		return nil, err
	}
	begin := time.Now()
	deadline := begin.Add(time.Duration(c.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i := range w.callers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &outs[i]
			for seq := uint32(liveWarmup); time.Now().Before(deadline); seq++ {
				var id uint64
				if c.tr != nil {
					id = c.tr.reserve()
				}
				start := time.Now()
				cause := w.liveCall(i, seq, c.tr, id)
				if c.tr != nil {
					c.tr.recordAs(id, "live.call", fmt.Sprint(id), "wall", start.Sub(c.tr.origin), time.Since(c.tr.origin), 0)
				}
				if cause != "" {
					o.causes = append(o.causes, cause)
					continue
				}
				o.ok++
				o.lat = append(o.lat, float64(time.Since(start).Nanoseconds())/1e6)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(begin)
	if err := pr.end(); err != nil {
		return nil, err
	}

	var lat []float64
	for i, o := range outs {
		lat = append(lat, o.lat...)
		r.attempted += o.ok + len(o.causes)
		for _, cause := range o.causes {
			r.fail(cause)
		}
		want := received[i] + o.ok*liveBatches*len(livePayload)
		r.check(w.callees[i].ReceivedBytes() >= want,
			"live: callee %d received %d bytes, want at least %d from acked batches", i, w.callees[i].ReceivedBytes(), want)
	}
	pr.finish(r, float64(r.attempted))
	r.work = float64(r.attempted-r.failed) / pr.given(elapsed)
	r.value("live_calls_per_s", "calls/s", r.work)
	r.latency("live_call", "ms", lat)

	if c.tr != nil && r.attempted > 0 {
		n := float64(r.attempted)
		for _, h := range []string{"join", "get_close_set", "call_setup", "relay_open", "voice_forward"} {
			r.layer["core.handler_us_p50."+h] = c.tr.p50("core.handler."+h) / 1e3
		}
		r.layer["core.setup_call_us_p50"] = c.tr.p50("core.setup_call") / 1e3
		r.layer["core.send_voice_relayed_us_p50"] = c.tr.p50("core.send_voice_relayed") / 1e3
		r.layer["transport.tcp_calls_per_call"] = float64(ts.calls.Load()-calls0) / n
		r.layer["transport.frame_bytes_per_call"] = float64(ts.frames.Load()-frames0) / n
		r.layer["transport.tcp_call_us_p50"] = c.tr.p50("transport.tcp_call") / 1e3
		r.layer["transport.tcp_overhead_us_p50"] = c.tr.p50("transport.tcp_overhead") / 1e3
	}
	return r, nil
}
