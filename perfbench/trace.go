package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"asap/internal/session"
	"asap/internal/sim"
	"asap/internal/transport"
)

// Tracing. Spans come only from this package: decorators around the
// transport, packet-network and session-driver interfaces, and direct
// timing of public calls. They are kept in memory and written out as
// JSON lines when the run ends.
//
// On the virtual clock a blocking call's wall span would also contain
// every task that ran while it was parked, so blocking calls are
// recorded in virtual time ("virtual" clock) and wall time is recorded
// only for spans that never block: datagram handlers, SendVoice and
// server handlers.

// maxSpans bounds the spans kept for the span file; samples and counts
// keep every span.
const maxSpans = 100_000

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Key is the call or session id, or the peer address for spans the
	// benchmark cannot tie to one call (server handlers).
	Key   string `json:"key,omitempty"`
	Clock string `json:"clock"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Self is End-Start minus the time covered by child spans.
	Self int64 `json:"self_ns"`
}

type openSpan struct {
	span
	wall  time.Time
	child int64
}

type tracer struct {
	origin time.Time

	mu      sync.Mutex
	nextID  uint64
	spans   []span
	total   int
	samples map[string][]float64 // span name -> self durations in ns
	stack   []*openSpan
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), samples: map[string][]float64{}}
}

func (t *tracer) keep(s span) {
	t.total++
	t.samples[s.Name] = append(t.samples[s.Name], float64(s.Self))
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
}

// reserve allocates a span id ahead of recording the span, so child
// spans recorded first can name it as their parent.
func (t *tracer) reserve() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record adds a finished span and returns its id.
func (t *tracer) record(name, key, clock string, start, end time.Duration, parent uint64) uint64 {
	return t.recordAs(t.reserve(), name, key, clock, start, end, parent)
}

// recordAs adds a finished span under a reserved id.
func (t *tracer) recordAs(id uint64, name, key, clock string, start, end time.Duration, parent uint64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.keep(span{ID: id, Parent: parent, Name: name, Key: key, Clock: clock,
		Start: int64(start), End: int64(end), Self: int64(end - start)})
	return id
}

// wall records a wall-clock span that started at start and ends now.
func (t *tracer) wall(name, key string, start time.Time, parent uint64) uint64 {
	return t.record(name, key, "wall", start.Sub(t.origin), time.Since(t.origin), parent)
}

// begin opens a nested wall span. Nesting is tracked on one stack, which
// is sound only where one task runs at a time and the span's body does
// not block: datagram handlers on a sim.Clock.
func (t *tracer) begin(name, key string) *openSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s := &openSpan{span: span{ID: t.nextID, Name: name, Key: key, Clock: "wall"}, wall: time.Now()}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1].ID
	}
	t.stack = append(t.stack, s)
	return s
}

func (t *tracer) end(s *openSpan) {
	now := time.Now()
	d := now.Sub(s.wall).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stack = t.stack[:len(t.stack)-1]
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
	s.Start = s.wall.Sub(t.origin).Nanoseconds()
	s.End = s.Start + d
	s.Self = d - s.child
	t.keep(s.span)
}

// p50 is the median self time of a span name, in ns.
func (t *tracer) p50(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.samples[name])
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// write dumps the kept spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// --- transport.Transport decorator ---

// handlerNames names the server handlers the per-layer metrics report.
var handlerNames = map[transport.MsgType]string{
	transport.MsgJoin:        "join",
	transport.MsgGetCloseSet: "get_close_set",
	transport.MsgCallSetup:   "call_setup",
	transport.MsgRelayOpen:   "relay_open",
	transport.MsgPing:        "ping",
	transport.MsgVoice:       "voice_rx",
}

// exchange identifies one request in flight: a caller has at most one
// outstanding request of a type to one destination.
type exchange struct {
	from, to transport.Addr
	typ      transport.MsgType
}

// tracedTransport wraps Serve handlers and Call. relay marks the
// transport a relay node serves on, whose MsgVoice handler forwards.
type tracedTransport struct {
	inner   transport.Transport
	t       *tracer
	relay   bool
	handled *sync.Map // exchange -> server handler time
	calls   *atomic.Int64
	frames  *atomic.Int64
}

func (tt *tracedTransport) Serve(addr transport.Addr, h transport.Handler) (transport.Addr, error) {
	var bound atomic.Pointer[transport.Addr]
	wrapped := func(from transport.Addr, req *transport.Message) (*transport.Message, error) {
		typ := req.Type
		start := time.Now()
		resp, err := h(from, req)
		d := time.Since(start)
		name, ok := handlerNames[typ]
		if !ok {
			name = typ.String()
		}
		if tt.relay && typ == transport.MsgVoice {
			name = "voice_forward"
		}
		tt.t.wall("core.handler."+name, string(from), start, 0)
		if to := bound.Load(); to != nil {
			tt.handled.Store(exchange{req.From, *to, typ}, d)
		}
		return resp, err
	}
	b, err := tt.inner.Serve(addr, wrapped)
	if err == nil {
		bound.Store(&b)
	}
	return b, err
}

func (tt *tracedTransport) Call(to transport.Addr, req *transport.Message) (*transport.Message, error) {
	key := exchange{req.From, to, req.Type}
	bytes := len(transport.AppendMessage(nil, req))
	start := time.Now()
	resp, err := tt.inner.Call(to, req)
	d := time.Since(start)
	id := tt.t.wall("transport.tcp_call", string(to), start, 0)
	tt.calls.Add(1)
	if err == nil {
		bytes += len(transport.AppendMessage(nil, resp))
		if v, ok := tt.handled.LoadAndDelete(key); ok {
			end := time.Since(tt.t.origin)
			tt.t.record("transport.tcp_overhead", string(to), "wall", end-d+v.(time.Duration), end, id)
		}
	}
	tt.frames.Add(int64(bytes))
	return resp, err
}

func (tt *tracedTransport) Close() error { return tt.inner.Close() }

// --- transport.PacketNetwork decorator ---

// tracedNet wraps the datagram handlers bound through it in a span
// named spanName (none when empty) and counts WriteTo calls into writes
// (none when nil).
type tracedNet struct {
	inner    transport.PacketNetwork
	t        *tracer
	spanName string
	writes   *atomic.Int64
}

func (n *tracedNet) ListenPacket(addr transport.Addr, h transport.PacketHandler) (transport.PacketConn, error) {
	wh := h
	if n.spanName != "" {
		key := string(addr)
		wh = func(from transport.Addr, data []byte) {
			s := n.t.begin(n.spanName, key)
			h(from, data)
			n.t.end(s)
		}
	}
	c, err := n.inner.ListenPacket(addr, wh)
	if err != nil || n.writes == nil {
		return c, err
	}
	return &countingConn{PacketConn: c, writes: n.writes}, nil
}

type countingConn struct {
	transport.PacketConn
	writes *atomic.Int64
}

func (c *countingConn) WriteTo(to transport.Addr, data []byte) error {
	c.writes.Add(1)
	return c.PacketConn.WriteTo(to, data)
}

// --- session.Driver decorator ---

// tracedDriver times the session layer's probes in virtual time and
// counts keepalives. It implements session.BatchDriver like *core.Node,
// so the manager keeps its batched probe path.
type tracedDriver struct {
	inner session.BatchDriver
	t     *tracer
	clk   sim.Scheduler
	key   string

	keepalives, probeCalls, paths, scalar atomic.Int64
}

func (d *tracedDriver) ProbePath(relay, callee transport.Addr) (time.Duration, float64, error) {
	d.scalar.Add(1)
	return d.inner.ProbePath(relay, callee)
}

func (d *tracedDriver) Keepalive(target transport.Addr, flowID uint64) error {
	d.keepalives.Add(1)
	start := d.clk.Now()
	err := d.inner.Keepalive(target, flowID)
	d.t.record("session.keepalive", d.key, "virtual", start, d.clk.Now(), 0)
	return err
}

func (d *tracedDriver) ProbePaths(reqs []session.PathRequest) []session.PathResult {
	d.probeCalls.Add(1)
	d.paths.Add(int64(len(reqs)))
	start := d.clk.Now()
	res := d.inner.ProbePaths(reqs)
	d.t.record("session.probe", d.key, "virtual", start, d.clk.Now(), 0)
	return res
}
