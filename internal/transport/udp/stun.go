package udp

import (
	"fmt"

	"asap/internal/transport"
)

// STUNServer is the external-address discovery half of the traversal
// ladder: a node behind a NAT cannot see its own public mapping, so it
// asks a server outside the NAT what address its datagrams appear to
// come from (the STUN "binding request" idea, RFC 5389, stripped to the
// one primitive ASAP needs). The bootstrap hosts one in live
// deployments; tests run one on the public side of the NAT emulator.
type STUNServer struct {
	conn transport.PacketConn
	// ready is closed once conn is stored. The socket's reader may deliver
	// before ListenPacket returns; closing ready is what orders the store
	// before handle's read of conn.
	ready chan struct{}
}

// NewSTUNServer binds a discovery server on addr over net.
func NewSTUNServer(pnet transport.PacketNetwork, addr transport.Addr) (*STUNServer, error) {
	s := &STUNServer{ready: make(chan struct{})}
	conn, err := pnet.ListenPacket(addr, s.handle)
	if err != nil {
		return nil, fmt.Errorf("udp: stun listen: %w", err)
	}
	s.conn = conn
	close(s.ready)
	return s, nil
}

// Addr returns the server's bound address.
func (s *STUNServer) Addr() transport.Addr { return s.conn.LocalAddr() }

// Close stops the server.
func (s *STUNServer) Close() error { return s.conn.Close() }

// handle answers each binding request with the observed source address —
// which, for a NATed client, is the client's external mapping for this
// socket. Seq is echoed so clients can match retries to answers.
func (s *STUNServer) handle(from transport.Addr, data []byte) {
	select {
	case <-s.ready:
	default:
		return // arrived before the server was up: lost, and the client retries
	}
	p, err := Parse(data)
	if err != nil || p.Type != PTStunReq {
		return // not ours; datagrams from strangers are dropped silently
	}
	buf := GetBuf()
	resp := Packet{Type: PTStunResp, Seq: p.Seq, SSRC: p.SSRC, Payload: []byte(from)}
	buf = resp.AppendTo(buf)
	_ = s.conn.WriteTo(from, buf)
	PutBuf(buf)
}
