package udp

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"asap/internal/transport"
)

// loopbackAvailable probes whether the runner allows real UDP loopback
// traffic: sandboxed CI runners commonly permit binds but drop the
// datagrams, so the probe round-trips one packet with a deadline.
func loopbackAvailable(t *testing.T) bool {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return false
	}
	defer func() { _ = pc.Close() }()
	if _, err := pc.WriteTo([]byte("probe"), pc.LocalAddr()); err != nil {
		return false
	}
	_ = pc.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	_, _, err = pc.ReadFrom(buf)
	return err == nil
}

// TestLiveLoopback is the real-socket smoke test: discovery, direct
// establishment and voice over kernel UDP on 127.0.0.1, using the wall
// scheduler. Skips on runners without working UDP loopback.
func TestLiveLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping real-socket test")
	}
	if !loopbackAvailable(t) {
		t.Skip("UDP loopback unavailable on this runner")
	}
	lnet := NewLive()
	defer func() { _ = lnet.Close() }()

	stun, err := NewSTUNServer(lnet, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stun.Close() }()
	relay, err := NewRelayServer(lnet, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = relay.Close() }()

	cfg := DefaultConfig()
	ep, err := NewEndpoint(lnet, wallFallback, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ep.Open("127.0.0.1:0", 99)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := ep.Open("127.0.0.1:0", 99)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()

	// Discovery against the local STUN server sees the loopback address.
	extA, err := a.Discover(stun.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if extA != a.LocalAddr() {
		t.Errorf("discovered %q, want %q (no NAT on loopback)", extA, a.LocalAddr())
	}

	heard := make(chan Packet, 64)
	b.SetVoiceHandler(func(p Packet, from transport.Addr) {
		cp := p
		cp.Payload = append([]byte(nil), p.Payload...)
		select {
		case heard <- cp:
		default:
		}
	})

	// Two-sided establishment over real sockets: run both ladders on
	// goroutines (wall scheduler tasks are plain goroutines).
	type result struct {
		kind PathKind
		err  error
	}
	results := make(chan result, 2)
	go func() {
		k, err := a.Establish(b.LocalAddr(), relay.Addr(), true)
		results <- result{k, err}
	}()
	go func() {
		k, err := b.Establish(a.LocalAddr(), relay.Addr(), false)
		results <- result{k, err}
	}()
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("establish over loopback: %v", r.err)
		}
		if r.kind != PathDirect {
			t.Errorf("path = %v, want direct on loopback", r.kind)
		}
	}

	// Voice a → b.
	const n = 20
	for i := 0; i < n; i++ {
		if err := a.SendVoice([]byte("live-frame")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	deadline := time.After(5 * time.Second)
	for got := 0; got < n; {
		select {
		case p := <-heard:
			if string(p.Payload) != "live-frame" {
				t.Fatalf("payload %q", p.Payload)
			}
			got++
		case <-deadline:
			t.Fatalf("timed out: %d/%d voice packets over loopback", got, n)
		}
	}
	if st := b.Stats(); st.Packets < n {
		t.Errorf("rx stats %+v, want >= %d packets", st, n)
	}
}

// earlyNet opens sockets on a live network, and every ListenPacket
// first has the new socket's handler take one datagram, first, sent from
// the helper socket from: the owner sees a packet before ListenPacket
// has returned, so before it has stored the conn.
type earlyNet struct {
	*Live
	from  transport.PacketConn
	first []byte
}

func (n *earlyNet) ListenPacket(addr transport.Addr, h transport.PacketHandler) (transport.PacketConn, error) {
	handled := make(chan struct{})
	var once sync.Once
	conn, err := n.Live.ListenPacket(addr, func(from transport.Addr, data []byte) {
		h(from, data)
		once.Do(func() { close(handled) })
	})
	if err != nil {
		return nil, err
	}
	if err := n.from.WriteTo(conn.LocalAddr(), n.first); err != nil {
		return nil, err
	}
	select {
	case <-handled:
		return conn, nil
	case <-time.After(2 * time.Second):
		return nil, fmt.Errorf("early datagram to %s never delivered", conn.LocalAddr())
	}
}

// liveEarlyWorld is a live loopback network, a helper socket whose
// inbound datagrams arrive on the returned channel, and an earlyNet that
// sends first from it.
func liveEarlyWorld(t *testing.T, first Packet) (*earlyNet, transport.PacketConn, chan Packet) {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping real-socket test")
	}
	if !loopbackAvailable(t) {
		t.Skip("UDP loopback unavailable on this runner")
	}
	lnet := NewLive()
	t.Cleanup(func() { _ = lnet.Close() })
	got := make(chan Packet, 8)
	helper, err := lnet.ListenPacket("127.0.0.1:0", func(_ transport.Addr, data []byte) {
		if p, err := Parse(data); err == nil {
			select {
			case got <- p:
			default:
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return &earlyNet{Live: lnet, from: helper, first: first.AppendTo(nil)}, helper, got
}

// awaitPacket returns the next datagram the helper socket received.
func awaitPacket(t *testing.T, got chan Packet) Packet {
	t.Helper()
	select {
	case p := <-got:
		return p
	case <-time.After(2 * time.Second):
		t.Fatal("no answer on the helper socket")
		return Packet{}
	}
}

// TestRelayServerDropsDatagramsBeforeReady: a bind that reaches the
// relay before NewRelayServerWith returns is dropped rather than
// answered through a conn not yet stored; binds after it are served.
func TestRelayServerDropsDatagramsBeforeReady(t *testing.T) {
	bad := Packet{Type: PTRelayBind, Seq: 1, SSRC: 7, Payload: make([]byte, relayProofLen)}
	enet, helper, got := liveEarlyWorld(t, bad)
	r, err := NewRelayServerWith(enet, "127.0.0.1:0", nil, RelayConfig{Secret: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	if n := r.AuthRejections(); n != 0 {
		t.Fatalf("early bind was handled: %d auth rejections, want 0", n)
	}
	buf := bad.AppendTo(nil)
	if err := helper.WriteTo(r.Addr(), buf); err != nil {
		t.Fatal(err)
	}
	if p := awaitPacket(t, got); p.Type != PTRelayReject || p.SSRC != 7 {
		t.Fatalf("answer = %+v, want a PTRelayReject for flow 7", p)
	}
	if n := r.AuthRejections(); n != 1 {
		t.Errorf("auth rejections = %d, want 1", n)
	}
}

// TestEndpointOpenDropsDatagramsBeforeReady: a Syn that reaches a flow
// before Endpoint.Open returns is dropped rather than acked through a
// conn not yet stored; Syns after it are answered.
func TestEndpointOpenDropsDatagramsBeforeReady(t *testing.T) {
	syn := Packet{Type: PTSyn, Seq: 1, SSRC: 9}
	enet, helper, got := liveEarlyWorld(t, syn)
	ep, err := NewEndpoint(enet, wallFallback, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f, err := ep.Open("127.0.0.1:0", 9)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	if path := f.Path(); path != PathNone {
		t.Fatalf("early Syn was handled: path %v, want none", path)
	}
	if err := helper.WriteTo(f.LocalAddr(), syn.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if p := awaitPacket(t, got); p.Type != PTAck || p.SSRC != 9 {
		t.Fatalf("answer = %+v, want a PTAck for flow 9", p)
	}
	if path := f.Path(); path != PathDirect {
		t.Errorf("path = %v, want direct", path)
	}
}
