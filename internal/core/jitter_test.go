package core

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"asap/internal/sim"
	"asap/internal/transport"
)

// joinDropper fails a node's first drops MsgJoin calls as unreachable,
// as a bootstrap missing beats would, and records the virtual instant of
// every join attempt.
type joinDropper struct {
	transport.Transport
	clk   *sim.Clock
	drops int
	at    []time.Duration
}

func (d *joinDropper) Call(to transport.Addr, req *transport.Message) (*transport.Message, error) {
	if req.Type == transport.MsgJoin {
		d.at = append(d.at, d.clk.Now())
		if len(d.at) <= d.drops {
			return nil, fmt.Errorf("%w: join dropped", transport.ErrUnreachable)
		}
	}
	return d.Transport.Call(to, req)
}

// joinWithDrops joins one node at a fixed seed and address on a virtual
// clock, through a bootstrap that drops the first drops join attempts.
// It returns the join instants and whether the node holds a jitter
// stream afterwards.
func joinWithDrops(t *testing.T, drops int) ([]time.Duration, bool) {
	t.Helper()
	clk := sim.NewClock()
	mem := transport.NewMem()
	mem.Sched = clk
	mem.Latency = func(from, to transport.Addr) time.Duration { return 3 * time.Millisecond }
	defer func() { _ = mem.Close() }()
	tr := &joinDropper{Transport: mem, clk: clk, drops: drops}
	var hasStream bool
	clk.RunTask(func() {
		bs, err := NewBootstrap(mem, "bs", actorBootstrapConfig())
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(tr, "m1", NodeConfig{
			IP: "10.100.0.1", Bootstrap: bs.Addr(), Params: testParams(),
			Sched: clk, Seed: 42,
			Retry: RetryPolicy{
				Attempts: 4, BaseDelay: 50 * time.Millisecond,
				MaxDelay: time.Second, Multiplier: 2, Jitter: 0.2,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		n.jitterMu.Lock()
		hasStream = n.jitterRNG != nil
		n.jitterMu.Unlock()
	})
	return tr.at, hasStream
}

// TestCleanJoinHoldsNoJitterStream: the retry-jitter stream is created
// on the first retry, so a node whose join succeeds first time never
// pays for one.
func TestCleanJoinHoldsNoJitterStream(t *testing.T) {
	at, hasStream := joinWithDrops(t, 0)
	if len(at) != 1 {
		t.Fatalf("joined in %d attempts, want 1", len(at))
	}
	if hasStream {
		t.Error("node holds a retry-jitter stream after a clean join")
	}
}

// TestLazyJitterStreamKeepsRetrySchedule pins the jittered join retry
// instants for seed 42 and address "m1" to the values the eagerly
// seeded stream produced: creating the stream on first draw must not
// move a single retry.
func TestLazyJitterStreamKeepsRetrySchedule(t *testing.T) {
	at, hasStream := joinWithDrops(t, 2)
	// Base 50 ms then 100 ms, each plus up to 20% jitter from the stream.
	want := []time.Duration{0, 50_149_921, 162_232_546}
	if fmt.Sprint(at) != fmt.Sprint(want) {
		t.Errorf("join attempts at %v, want %v", at, want)
	}
	if !hasStream {
		t.Error("node retried without creating its jitter stream")
	}
}

// TestJitterConcurrentFirstDraw: concurrent first draws (wall-mode
// retries racing) must create the stream once and share it, so together
// they consume exactly the stream's first values.
func TestJitterConcurrentFirstDraw(t *testing.T) {
	const draws = 8
	n := &Node{cfg: NodeConfig{Seed: 42}, addr: "m1"}
	got := make([]float64, draws)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = n.jitter()
		}()
	}
	wg.Wait()
	ref := sim.NewRNG(sim.SubSeed(42, sim.StringLabel("retry-jitter"), sim.StringLabel("m1")))
	want := make([]float64, draws)
	for i := range want {
		want[i] = ref.Float64()
	}
	sort.Float64s(got)
	sort.Float64s(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("concurrent first draws %v, want the stream's first %d values %v", got, draws, want)
	}
}
