package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"asap/internal/asgraph"
	"asap/internal/bgp"
	"asap/internal/sim"
	"asap/internal/transport"
)

// This file (with member.go, closeset.go, callsetup.go and voice.go) is
// the deployable, message-passing realization of ASAP: the Bootstrap,
// Surrogate and EndHost actors of Section 6.1, written against
// transport.Transport so the same code runs over the in-memory transport
// (tests, simulation) and real TCP (cmd/asapd, examples/livenet).
//
// The actor layer implements join, surrogate registration, close-cluster-
// set construction by live pinging, nodal-info publication, call setup
// with one-hop select-close-relay, and voice forwarding through the
// chosen relay. (Two-hop expansion lives in the algorithmic layer; the
// daemon uses one-hop selection, which Section 7.3 shows costs only two
// messages per call.)
//
// Control-plane churn tolerance (Section 6.1's failure duties):
//
//   - Surrogate registrations are leases: they expire unless renewed by
//     heartbeat, and registration is compare-and-swap — a live incumbent
//     wins, so concurrent joiners converge on one surrogate per cluster.
//   - Every control call retries with capped exponential backoff
//     (RetryPolicy); only transport-level failures are retried.
//   - A member whose surrogate stops answering re-joins, volunteers when
//     the bootstrap confirms the cluster is vacant, and republishes its
//     nodal info ("end hosts volunteer when the incumbent is gone").
//   - Call setup degrades instead of failing: when the close set or the
//     callee's surrogate is unreachable, the call proceeds direct and is
//     marked Degraded; the live session monitor upgrades it later.

// BootstrapConfig seeds a bootstrap node.
type BootstrapConfig struct {
	// Graph is the annotated AS graph the bootstrap maintains from BGP
	// feeds (duty 1 of Section 6.1).
	Graph *asgraph.Graph
	// Prefixes maps every routed prefix to its origin AS (duty 2).
	Prefixes []PrefixOrigin
	// K is the valley-free hop bound handed to surrogates.
	K int
	// LeaseTTL is how long a surrogate registration stays valid without a
	// heartbeat renewal. Zero disables expiry — the pre-lease behaviour
	// where a dead surrogate is handed out forever (the churn experiment's
	// baseline arm).
	LeaseTTL time.Duration
	// Sched is the bootstrap's time source for lease expiry. Nil means
	// real time.
	Sched sim.Scheduler
}

// PrefixOrigin is one prefix-to-origin-AS row.
type PrefixOrigin struct {
	Prefix string
	ASN    asgraph.ASN
}

// surrogateLease is one cluster's registration: who serves it and until
// when (a scheduler offset). A zero expiry never expires (leases
// disabled; scheduler time starts positive only after the first tick, so
// zero is free as a sentinel — TTL > 0 always yields expires > 0).
type surrogateLease struct {
	addr    transport.Addr
	expires time.Duration
}

// Bootstrap is the dedicated always-on server actor.
type Bootstrap struct {
	cfg   BootstrapConfig
	trie  bgp.Trie
	tr    transport.Transport
	addr  transport.Addr
	sched sim.Scheduler
	mu    sync.Mutex
	surro map[string]surrogateLease // cluster key -> surrogate lease
	byAS  map[asgraph.ASN][]string  // AS -> cluster keys
	known map[string]asgraph.ASN    // cluster key -> AS
	// keys interns cluster-key strings by prefix. Filled once here and
	// read-only afterwards, it lets a join hand out the shared key of the
	// prefix its trie lookup matched without formatting it: a million
	// joiners share one copy of each key (in their JoinReply,
	// Node.clusterKey, lease table entries), and the join path — which
	// this actor serializes — never calls fmt.
	keys map[bgp.Prefix]string
}

// NewBootstrap builds and serves a bootstrap node on addr.
func NewBootstrap(tr transport.Transport, addr transport.Addr, cfg BootstrapConfig) (*Bootstrap, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("core: bootstrap needs an AS graph")
	}
	if cfg.K < 1 {
		cfg.K = DefaultParams().K
	}
	if cfg.LeaseTTL < 0 {
		return nil, fmt.Errorf("core: bootstrap LeaseTTL must be >= 0")
	}
	b := &Bootstrap{
		cfg:   cfg,
		tr:    tr,
		sched: cfg.Sched,
		surro: make(map[string]surrogateLease),
		byAS:  make(map[asgraph.ASN][]string),
		known: make(map[string]asgraph.ASN),
		keys:  make(map[bgp.Prefix]string),
	}
	for _, po := range cfg.Prefixes {
		p, err := bgp.ParsePrefix(po.Prefix)
		if err != nil {
			return nil, fmt.Errorf("core: bootstrap prefix %q: %w", po.Prefix, err)
		}
		b.trie.Insert(p, po.ASN)
		key := p.String()
		b.known[key] = po.ASN
		b.keys[p] = key
		b.byAS[po.ASN] = append(b.byAS[po.ASN], key)
	}
	if b.sched == nil {
		b.sched = wallSched
	}
	bound, err := tr.Serve(addr, b.handle)
	if err != nil {
		return nil, err
	}
	b.addr = bound
	return b, nil
}

// Addr returns the bootstrap's bound address.
func (b *Bootstrap) Addr() transport.Addr { return b.addr }

// liveSurrogateLocked returns the cluster's surrogate if its lease is
// still valid. MsgJoin never hands out an expired surrogate.
func (b *Bootstrap) liveSurrogateLocked(key string) (transport.Addr, bool) {
	l, ok := b.surro[key]
	if !ok || l.addr == "" {
		return "", false
	}
	if l.expires != 0 && b.sched.Now() > l.expires {
		return "", false
	}
	return l.addr, true
}

// registerSurrogate is the shared compare-and-swap body of
// MsgRegisterSurrogate and MsgSurrogateHeartbeat: the registration is
// granted (or renewed) only when the cluster has no live incumbent or the
// incumbent is the requester itself. The reply always names the cluster's
// current lease holder, so a loser learns whom to follow.
func (b *Bootstrap) registerSurrogate(req *transport.Message, reply transport.MsgType) (*transport.Message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.known[req.ClusterKey]; !ok {
		return nil, fmt.Errorf("core: register for unknown cluster %q", req.ClusterKey)
	}
	cur, live := b.liveSurrogateLocked(req.ClusterKey)
	if live && cur != req.SurrogateAddr {
		return &transport.Message{
			Type: reply, SurrogateAddr: cur, LeaseTTL: b.cfg.LeaseTTL,
		}, nil
	}
	var exp time.Duration
	if b.cfg.LeaseTTL > 0 {
		exp = b.sched.Now() + b.cfg.LeaseTTL
	}
	b.surro[req.ClusterKey] = surrogateLease{addr: req.SurrogateAddr, expires: exp}
	return &transport.Message{
		Type: reply, SurrogateAddr: req.SurrogateAddr, LeaseTTL: b.cfg.LeaseTTL,
	}, nil
}

func (b *Bootstrap) handle(from transport.Addr, req *transport.Message) (*transport.Message, error) {
	switch req.Type {
	case transport.MsgJoin:
		ip, err := bgp.ParseAddr(req.IP)
		if err != nil {
			return nil, fmt.Errorf("core: join with bad IP %q", req.IP)
		}
		prefix, asn, ok := b.trie.Lookup(ip)
		if !ok {
			return nil, fmt.Errorf("core: no route for %s", req.IP)
		}
		key, ok := b.keys[prefix]
		if !ok {
			key = prefix.String()
		}
		b.mu.Lock()
		sur, _ := b.liveSurrogateLocked(key)
		b.mu.Unlock()
		return &transport.Message{
			Type:          transport.MsgJoinReply,
			ASN:           uint32(asn),
			ClusterKey:    key,
			SurrogateAddr: sur, // empty => caller becomes surrogate
		}, nil

	case transport.MsgRegisterSurrogate:
		return b.registerSurrogate(req, transport.MsgRegisterSurrogateReply)

	case transport.MsgSurrogateHeartbeat:
		// Renewal piggybacks the heartbeat: the same CAS body renews a held
		// lease and re-acquires a lost one (e.g. after a bootstrap restart
		// wiped the table).
		return b.registerSurrogate(req, transport.MsgSurrogateHeartbeatReply)

	case transport.MsgGetSurrogates:
		// Return the surrogates of every cluster whose AS lies within K
		// valley-free hops of the requester's AS — the bootstrap holds
		// the graph, so surrogates need not mirror it (Section 6.1 lets
		// either side own the BFS; serving it here keeps wire messages
		// small).
		if len(req.ASNs) != 1 {
			return nil, fmt.Errorf("core: GetSurrogates wants exactly one source AS")
		}
		src := asgraph.ASN(req.ASNs[0])
		reach := b.cfg.Graph.ValleyFreeBFS(src, b.cfg.K)
		var entries []transport.CloseEntry
		b.mu.Lock()
		for asn := range reach.Hops {
			for _, key := range b.byAS[asn] {
				if sur, ok := b.liveSurrogateLocked(key); ok {
					entries = append(entries, transport.CloseEntry{
						ClusterKey:    key,
						SurrogateAddr: sur,
					})
				}
			}
		}
		b.mu.Unlock()
		sort.Slice(entries, func(i, j int) bool { return entries[i].ClusterKey < entries[j].ClusterKey })
		return &transport.Message{Type: transport.MsgGetSurrogatesReply, CloseSet: entries}, nil

	case transport.MsgPing:
		return &transport.Message{Type: transport.MsgPong, SentAt: req.SentAt}, nil

	default:
		return nil, fmt.Errorf("core: bootstrap cannot handle message type %d", req.Type)
	}
}
