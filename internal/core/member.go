package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"asap/internal/asgraph"
	"asap/internal/sim"
	"asap/internal/transport"
	"asap/internal/transport/udp"
)

// wallSched is the shared real-time scheduler for actors built without an
// explicit one.
var wallSched = sim.NewWall()

// Member role: the Node actor's identity, lifecycle and cluster-membership
// duties — joining via the bootstrap, publishing nodal info, volunteering
// as surrogate, lease renewal and re-election — plus the inbound message
// dispatch shared by every role.

// NodeConfig configures an end-host/surrogate actor.
type NodeConfig struct {
	// IP is the node's VoIP-overlay IP address (used for clustering).
	IP string
	// Bootstrap is the bootstrap server's address.
	Bootstrap transport.Addr
	// Params are the protocol parameters (K is enforced bootstrap-side).
	Params Params
	// Nodal is the node's published capability information.
	Nodal transport.NodalInfo
	// Retry schedules control-plane retries; the zero value means
	// DefaultRetryPolicy.
	Retry RetryPolicy
	// PingTimeout bounds each close-set probe ping (0 = 2x LatT).
	PingTimeout time.Duration
	// PingWorkers bounds the close-set probe worker pool (0 = 8).
	PingWorkers int
	// Sched is the node's time source: a *sim.Clock in simulation, the
	// wall adapter in the live daemon. Nil means real time.
	Sched sim.Scheduler
	// Seed roots the node's derived randomness (retry jitter); with the
	// virtual clock it makes the node's whole timing behaviour a pure
	// function of the seed.
	Seed int64
}

// Node is a peer actor: always an end host, and surrogate of its cluster
// when it is the cluster's first or best member.
type Node struct {
	cfg    NodeConfig
	tr     transport.Transport
	addr   transport.Addr
	retry  RetryPolicy
	sched  sim.Scheduler
	ctx    context.Context
	cancel context.CancelFunc

	// jitterRNG is the node's seeded retry-jitter stream (sim.SubSeed of
	// cfg.Seed and the bound address), created on the first draw: a
	// math/rand source is ~5 KB, and a node that never retries never
	// needs one. The mutex covers creation and wall-mode concurrent
	// retries.
	jitterMu  sync.Mutex
	jitterRNG *sim.RNG

	mu         sync.Mutex
	closed     bool
	bg         int        // in-flight background tasks (renewal ticks, re-elections)
	closeW     sim.Waiter // armed by Close to wait for bg to drain
	renewTimer sim.Timer  // pending lease-renewal tick
	asn        asgraph.ASN
	clusterKey string
	surrogate  transport.Addr // my cluster's surrogate (may be self)
	isSurro    bool
	leaseTTL   time.Duration // bootstrap's lease lifetime (0 = no leases)
	renewing   bool          // lease-renewal loop running
	rejoining  bool          // background re-election running
	closeSet   []transport.CloseEntry
	// members tracks nodal info published by cluster members (surrogate
	// role).
	members map[transport.Addr]transport.NodalInfo
	// flows maps relay flow IDs to their forwarding destinations.
	flows      map[uint64]transport.Addr
	nextFlowID uint64
	// received collects voice payload sizes per sending peer (callee
	// role). Keyed by sender address: the terminal hop always carries
	// FlowID 0, so a flow-keyed map would merge concurrent callers.
	received map[transport.Addr]int
	// outFlows caches the flow ID opened on each relay per callee, so
	// voice sends and keepalives share one relay flow per call.
	outFlows map[flowKey]uint64
	// quality holds the latest in-call quality report from each peer
	// (listener-observed RTT and loss), feeding the session monitor.
	quality map[transport.Addr]QualityReport
	// Voice data plane (media.go): per-call UDP endpoint, its wiring, the
	// next media port offset, live calls by flow token, and the token
	// sequence.
	media      *udp.Endpoint
	mediaCfg   MediaConfig
	mediaPorts int
	mediaCalls map[uint32]*MediaCall
	mediaSeq   uint32
}

// flowKey identifies an outbound relay flow: which relay, toward whom.
type flowKey struct {
	relay  transport.Addr
	callee transport.Addr
}

// QualityReport is a peer's listener-side view of an ongoing call. At is
// the receive time as an offset on this node's scheduler.
type QualityReport struct {
	RTT  time.Duration
	Loss float64
	At   time.Duration
}

// NewNode builds and serves a peer on addr, then joins via the bootstrap
// (end-host duty 1). If the cluster has no surrogate yet, the node
// volunteers (duty 2) and registers with compare-and-swap semantics, so
// concurrent joiners converge on a single surrogate.
func NewNode(tr transport.Transport, addr transport.Addr, cfg NodeConfig) (*Node, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	// Role maps (members, flows, received, outFlows, quality) stay nil
	// until first written: most of a million-node deployment's residents
	// never relay, never serve a cluster and never take a call, and five
	// empty maps per node is ~0.5 KB of dead weight at that scale.
	n := &Node{
		cfg:   cfg,
		tr:    tr,
		retry: cfg.Retry.withDefaults(),
		sched: cfg.Sched,
	}
	if n.sched == nil {
		n.sched = wallSched
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	bound, err := tr.Serve(addr, n.handle)
	if err != nil {
		return nil, err
	}
	n.addr = bound

	// Join (with backoff — a bootstrap missing one beat must not abort).
	resp, err := n.retryCall(cfg.Bootstrap, &transport.Message{
		Type: transport.MsgJoin, From: n.addr, IP: cfg.IP,
	})
	if err != nil {
		return nil, fmt.Errorf("core: join: %w", err)
	}
	n.mu.Lock()
	n.asn = asgraph.ASN(resp.ASN)
	n.clusterKey = resp.ClusterKey
	n.surrogate = resp.SurrogateAddr
	n.mu.Unlock()

	if resp.SurrogateAddr == "" {
		if err := n.tryBecomeSurrogate(); err != nil {
			return nil, err
		}
	} else if resp.SurrogateAddr != n.addr {
		// Publish nodal info to the incumbent (end-host duty 3).
		if err := n.publishNodal(); err != nil {
			// Incumbent unreachable even after retries. A transient publish
			// failure must not hijack the surrogate role: re-check the
			// bootstrap's lease state and volunteer only if the incumbent
			// is confirmed gone (lease expired). While the lease is live we
			// stay a member and re-elect on demand later.
			if _, rerr := n.reelect(); rerr != nil {
				return nil, fmt.Errorf("core: publish nodal info: %w", err)
			}
		}
	}
	return n, nil
}

// Addr returns the node's bound address.
func (n *Node) Addr() transport.Addr { return n.addr }

// ClusterKey returns the node's prefix-cluster identity.
func (n *Node) ClusterKey() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.clusterKey
}

// IsSurrogate reports whether the node currently serves its cluster.
func (n *Node) IsSurrogate() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.isSurro
}

// Surrogate returns the cluster surrogate this node currently follows
// (its own address when it serves the cluster itself).
func (n *Node) Surrogate() transport.Addr {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.surrogate
}

// Close stops the node's background loops (lease renewal, pending
// re-elections) and cancels in-flight retries. The transport binding is
// left to the transport's own Close. Draining waits on a scheduler
// Waiter rather than a raw WaitGroup, so under the virtual clock the
// caller's task parks and the background tasks can actually finish.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	if n.renewTimer != nil {
		n.renewTimer.Stop()
		n.renewTimer = nil
	}
	var w sim.Waiter
	if n.bg > 0 {
		w = n.sched.NewWaiter()
		n.closeW = w
	}
	n.mu.Unlock()
	n.cancel()
	if w != nil {
		w.Wait(-1)
	}
}

// bgStart registers a background task unless the node is closed; bgDone
// retires it and releases a pending Close once the last one drains.
func (n *Node) bgStart() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.bg++
	return true
}

func (n *Node) bgDone() {
	n.mu.Lock()
	n.bg--
	var w sim.Waiter
	if n.closed && n.bg == 0 {
		w = n.closeW
		n.closeW = nil
	}
	n.mu.Unlock()
	if w != nil {
		w.Wake()
	}
}

// jitter draws from the node's seeded retry-jitter stream. The stream is
// derived from the configured seed and the bound address, so every node
// retries on its own reproducible schedule; creating it on the first draw
// leaves that schedule unchanged.
func (n *Node) jitter() float64 {
	n.jitterMu.Lock()
	defer n.jitterMu.Unlock()
	if n.jitterRNG == nil {
		n.jitterRNG = sim.NewRNG(sim.SubSeed(n.cfg.Seed,
			sim.StringLabel("retry-jitter"), sim.StringLabel(string(n.addr))))
	}
	return n.jitterRNG.Float64()
}

// retryCall performs one control-plane request under the node's retry
// policy. Only transport-level failures are retried.
func (n *Node) retryCall(to transport.Addr, req *transport.Message) (*transport.Message, error) {
	var resp *transport.Message
	err := n.retry.Do(n.ctx, n.sched, n.jitter, func() error {
		r, err := n.tr.Call(to, req)
		if err != nil {
			return err
		}
		resp = r
		return nil
	})
	return resp, err
}

// publishNodal publishes this node's capability information to its
// surrogate (end-host duty 3). A no-op when the node serves itself.
func (n *Node) publishNodal() error {
	n.mu.Lock()
	sur := n.surrogate
	self := n.isSurro
	n.mu.Unlock()
	if self || sur == "" || sur == n.addr {
		return nil
	}
	_, err := n.retryCall(sur, &transport.Message{
		Type: transport.MsgPublishNodalInfo, From: n.addr, Nodal: n.cfg.Nodal,
	})
	return err
}

// tryBecomeSurrogate volunteers for the cluster with CAS semantics: if a
// live incumbent already holds the lease, the node adopts it as a member
// instead. On success the node starts lease renewal and builds its close
// set (a failed initial build leaves the set empty — degraded but
// serving; RefreshCloseSet can repair it any time).
func (n *Node) tryBecomeSurrogate() error {
	n.mu.Lock()
	key := n.clusterKey
	n.mu.Unlock()
	resp, err := n.retryCall(n.cfg.Bootstrap, &transport.Message{
		Type: transport.MsgRegisterSurrogate, From: n.addr,
		ClusterKey: key, SurrogateAddr: n.addr,
	})
	if err != nil {
		return fmt.Errorf("core: register surrogate: %w", err)
	}
	if resp.SurrogateAddr != "" && resp.SurrogateAddr != n.addr {
		// Lost the registration race: a live surrogate beat us. Serve as a
		// plain member of the winner.
		n.mu.Lock()
		n.isSurro = false
		n.surrogate = resp.SurrogateAddr
		n.mu.Unlock()
		return n.publishNodal()
	}
	n.mu.Lock()
	n.isSurro = true
	n.surrogate = n.addr
	n.leaseTTL = resp.LeaseTTL
	n.mu.Unlock()
	n.startRenewal(resp.LeaseTTL)
	_ = n.RefreshCloseSet()
	return nil
}

// startRenewal starts the lease-renewal heartbeat (no-op when leases are
// disabled or one is already running). Instead of a goroutine blocked on
// a ticker, each tick is a scheduler task that re-arms itself — the shape
// that runs identically on the virtual clock and the wall adapter.
func (n *Node) startRenewal(ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	n.mu.Lock()
	if n.renewing || n.closed {
		n.mu.Unlock()
		return
	}
	n.renewing = true
	n.mu.Unlock()
	interval := ttl / 3
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	n.armRenew(interval)
}

// armRenew schedules the next renewal tick, unless the node closed.
func (n *Node) armRenew(interval time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		n.renewing = false
		return
	}
	n.renewTimer = n.sched.AfterFunc(interval, func() { n.renewTick(interval) })
}

// renewTick is one heartbeat: renew the lease, demote on a lost lease,
// re-arm otherwise.
func (n *Node) renewTick(interval time.Duration) {
	stop := func() {
		n.mu.Lock()
		n.renewing = false
		n.mu.Unlock()
	}
	if !n.bgStart() {
		stop()
		return
	}
	defer n.bgDone()
	if n.ctx.Err() != nil || !n.IsSurrogate() {
		stop()
		return
	}
	n.mu.Lock()
	key := n.clusterKey
	n.mu.Unlock()
	resp, err := n.retryCall(n.cfg.Bootstrap, &transport.Message{
		Type: transport.MsgSurrogateHeartbeat, From: n.addr,
		ClusterKey: key, SurrogateAddr: n.addr,
	})
	if err != nil {
		// Bootstrap outage: keep serving and retry next tick — the
		// heartbeat re-acquires the lease once the bootstrap heals.
		n.armRenew(interval)
		return
	}
	if resp.SurrogateAddr != "" && resp.SurrogateAddr != n.addr {
		// Lease lost to a live rival (e.g. it registered during our own
		// outage): demote and follow it.
		n.mu.Lock()
		n.isSurro = false
		n.surrogate = resp.SurrogateAddr
		n.mu.Unlock()
		_ = n.publishNodal()
		stop()
		return
	}
	n.armRenew(interval)
}

// reelect re-runs the join to learn the bootstrap's current lease state
// after the surrogate stopped answering: it adopts a fresh incumbent, or
// volunteers when the cluster is vacant (end-host duty 2), republishing
// nodal info either way. It returns the surrogate the node now follows.
func (n *Node) reelect() (transport.Addr, error) {
	resp, err := n.retryCall(n.cfg.Bootstrap, &transport.Message{
		Type: transport.MsgJoin, From: n.addr, IP: n.cfg.IP,
	})
	if err != nil {
		return "", fmt.Errorf("core: rejoin: %w", err)
	}
	sur := resp.SurrogateAddr
	if sur == "" || sur == n.addr {
		if err := n.tryBecomeSurrogate(); err != nil {
			return "", err
		}
		return n.Surrogate(), nil
	}
	n.mu.Lock()
	changed := n.surrogate != sur
	n.surrogate = sur
	n.isSurro = false
	n.mu.Unlock()
	if changed {
		_ = n.publishNodal()
	}
	return sur, nil
}

// asyncReelect triggers reelect in the background, at most one at a time.
// Message handlers use it so a degraded reply is never delayed by a
// re-election round.
func (n *Node) asyncReelect() {
	n.mu.Lock()
	if n.rejoining || n.closed {
		n.mu.Unlock()
		return
	}
	n.rejoining = true
	n.bg++
	n.mu.Unlock()
	n.sched.Go(func() {
		defer n.bgDone()
		_, _ = n.reelect()
		n.mu.Lock()
		n.rejoining = false
		n.mu.Unlock()
	})
}

func (n *Node) handle(from transport.Addr, req *transport.Message) (*transport.Message, error) {
	switch req.Type {
	case transport.MsgPing:
		// The four hot-path acks (pong, keepalive, quality, voice) come
		// from the envelope pool; the caller-side helpers (Ping,
		// Keepalive, SendQualityReport, SendVoice) release them.
		resp := transport.AcquireMessage()
		resp.Type = transport.MsgPong
		resp.SentAt = req.SentAt
		return resp, nil

	case transport.MsgGetCloseSet, transport.MsgCallSetup:
		n.mu.Lock()
		isSurro := n.isSurro
		set := make([]transport.CloseEntry, len(n.closeSet))
		copy(set, n.closeSet)
		sur := n.surrogate
		n.mu.Unlock()
		if req.Type == transport.MsgCallSetup && !isSurro {
			// A plain member answers call setup with its surrogate's set.
			resp, err := n.tr.Call(sur, &transport.Message{
				Type: transport.MsgGetCloseSet, From: n.addr,
			})
			if err != nil {
				// Surrogate gone: degrade to an empty set so the call can
				// proceed direct, and re-elect in the background.
				n.asyncReelect()
				return &transport.Message{
					Type: transport.MsgCallSetupReply, Degraded: true,
				}, nil
			}
			set = resp.CloseSet
		}
		reply := transport.MsgGetCloseSetReply
		if req.Type == transport.MsgCallSetup {
			reply = transport.MsgCallSetupReply
		}
		return &transport.Message{Type: reply, CloseSet: set}, nil

	case transport.MsgPublishNodalInfo:
		n.mu.Lock()
		if n.members == nil {
			n.members = make(map[transport.Addr]transport.NodalInfo)
		}
		n.members[from] = req.Nodal
		better := req.Nodal.BandwidthKbps/1000+req.Nodal.OnlineFor.Hours()+req.Nodal.CPUScore >
			n.cfg.Nodal.BandwidthKbps/1000+n.cfg.Nodal.OnlineFor.Hours()+n.cfg.Nodal.CPUScore
		n.mu.Unlock()
		// Surrogates recommend better-equipped members (duty 5); the
		// recommendation is advisory in this implementation.
		_ = better
		return &transport.Message{Type: transport.MsgPublishNodalInfoReply}, nil

	case transport.MsgKeepalive:
		if req.FlowID != 0 {
			n.mu.Lock()
			_, ok := n.flows[req.FlowID]
			n.mu.Unlock()
			if !ok {
				return nil, fmt.Errorf("core: keepalive for unknown flow %d", req.FlowID)
			}
		}
		resp := transport.AcquireMessage()
		resp.Type = transport.MsgKeepaliveAck
		resp.FlowID = req.FlowID
		return resp, nil

	case transport.MsgRelayProbe:
		// Relay role: measure our leg to the probe's destination so the
		// caller's round trip spans the whole relayed path.
		rtt, err := n.Ping(req.Dst)
		if err != nil {
			return nil, fmt.Errorf("core: relay probe: callee leg: %w", err)
		}
		return &transport.Message{Type: transport.MsgRelayProbeReply, RTT: rtt}, nil

	case transport.MsgProbeBatch:
		// Relay role, batched: measure our leg to every probe destination
		// in one round trip. Legs run concurrently, so the caller recovers
		// its own leg as elapsed - max(leg RTTs); an empty destination
		// means "the path ends here" and costs nothing. An unreachable
		// destination answers -1 rather than failing the whole batch, so
		// each path degrades individually (DESIGN.md §15).
		rtts := make([]time.Duration, len(req.ProbeDsts))
		fns := make([]func(), 0, len(req.ProbeDsts))
		for i, dst := range req.ProbeDsts {
			if dst == "" {
				continue
			}
			i, dst := i, dst
			fns = append(fns, func() {
				rtt, err := n.Ping(dst)
				if err != nil {
					rtt = -1
				}
				rtts[i] = rtt
			})
		}
		if len(fns) > 0 {
			n.sched.Join(0, fns...)
		}
		resp := transport.AcquireMessage()
		resp.Type = transport.MsgProbeBatchReply
		resp.ProbeRTTs = rtts
		return resp, nil

	case transport.MsgMediaSetup:
		return n.handleMediaSetup(from, req)

	case transport.MsgMediaReestablish:
		return n.handleMediaReestablish(from, req)

	case transport.MsgQualityReport:
		n.mu.Lock()
		if n.quality == nil {
			n.quality = make(map[transport.Addr]QualityReport)
		}
		n.quality[from] = QualityReport{RTT: req.RTT, Loss: req.Loss, At: n.sched.Now()}
		n.mu.Unlock()
		resp := transport.AcquireMessage()
		resp.Type = transport.MsgQualityReportAck
		resp.SessionID = req.SessionID
		return resp, nil

	case transport.MsgRelayOpen:
		n.mu.Lock()
		n.nextFlowID++
		id := n.nextFlowID
		if n.flows == nil {
			n.flows = make(map[uint64]transport.Addr)
		}
		n.flows[id] = req.Dst
		n.mu.Unlock()
		return &transport.Message{Type: transport.MsgRelayOpenReply, FlowID: id}, nil

	case transport.MsgVoice:
		if req.FlowID != 0 {
			n.mu.Lock()
			dst, ok := n.flows[req.FlowID]
			n.mu.Unlock()
			if ok && dst != n.addr {
				// Relay role: forward and propagate the ack. From stays the
				// original caller so the callee's per-peer accounting
				// attributes bytes to the speaker, not the relay; Via marks
				// this node as the hop's wire sender so the transport
				// charges relay->callee latency (and routes the hop from
				// the relay's shard under the sharded runner).
				fwd := *req
				fwd.FlowID = 0 // terminal hop
				fwd.Via = n.addr
				return n.tr.Call(dst, &fwd)
			}
			if !ok {
				return nil, fmt.Errorf("core: unknown relay flow %d", req.FlowID)
			}
		}
		// Callee role: accept the batch, accounting per sender (the
		// terminal hop always carries FlowID 0, so concurrent callers
		// would merge under a flow-keyed counter).
		n.mu.Lock()
		if n.received == nil {
			n.received = make(map[transport.Addr]int)
		}
		n.received[from] += len(req.Frames)
		n.mu.Unlock()
		resp := transport.AcquireMessage()
		resp.Type = transport.MsgVoiceAck
		resp.Seq = req.Seq
		return resp, nil

	default:
		return nil, fmt.Errorf("core: node cannot handle message type %d", req.Type)
	}
}
