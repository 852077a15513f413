// Package bgp models the pieces of BGP the paper's measurement pipeline
// consumes: IPv4 prefixes, a radix trie for longest-prefix matching, a
// synthetic prefix allocation to ASes, RIB (routing table) synthesis from
// vantage points, and an update stream applier. ASAP's bootstrap nodes use
// these to build the IP-prefix -> origin-AS and IP-prefix -> surrogate
// mapping tables described in Section 6.1.
package bgp

import (
	"fmt"
	"strconv"
	"strings"

	"asap/internal/asgraph"
)

// Addr is an IPv4 address in host byte order. A bare uint32 keeps the hot
// clustering paths allocation-free; the netip-based formatting conveniences
// are provided for boundaries.
type Addr uint32

// String renders the address in dotted quad form.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// ParseAddr parses a dotted-quad IPv4 address. It runs on every join,
// so it parses in place without allocating (the error path aside). Each
// of the four fields is an optional sign and at least one decimal digit
// with a value in [0, 255] — the fields strconv.Atoi accepts in that
// range, so leading zeros, "+7" and "-0" parse; parseAddrReference in
// the tests keeps the split-and-Atoi original, and FuzzParseAddr holds
// the two to the same accept set.
func ParseAddr(s string) (Addr, error) {
	var a uint32
	i := 0
	for field := 0; field < 4; field++ {
		if field > 0 {
			if i == len(s) || s[i] != '.' {
				return 0, fmt.Errorf("bgp: invalid address %q", s)
			}
			i++
		}
		neg := false
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			neg = s[i] == '-'
			i++
		}
		start := i
		var v uint32
		for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
			if v <= 255 { // saturate: any longer run is already out of range
				v = v*10 + uint32(s[i]-'0')
			}
		}
		if i == start || v > 255 || (neg && v != 0) {
			return 0, fmt.Errorf("bgp: invalid address %q", s)
		}
		a = a<<8 | v
	}
	if i != len(s) {
		return 0, fmt.Errorf("bgp: invalid address %q", s)
	}
	return Addr(a), nil
}

// Prefix is an IPv4 CIDR block.
type Prefix struct {
	Addr Addr
	// Len is the prefix length in [0, 32].
	Len uint8
}

// ParsePrefix parses "a.b.c.d/len" CIDR notation, masking host bits.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("bgp: invalid prefix %q", s)
	}
	addr, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	l, err := strconv.Atoi(s[slash+1:])
	if err != nil || l < 0 || l > 32 {
		return Prefix{}, fmt.Errorf("bgp: invalid prefix length in %q", s)
	}
	return MakePrefix(addr, uint8(l)), nil
}

// MakePrefix returns the prefix with host bits masked off.
func MakePrefix(addr Addr, length uint8) Prefix {
	if length > 32 {
		length = 32
	}
	return Prefix{Addr: addr & mask(length), Len: length}
}

func mask(length uint8) Addr {
	if length == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - length))
}

// String renders CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr, p.Len)
}

// Contains reports whether a falls inside p.
func (p Prefix) Contains(a Addr) bool {
	return a&mask(p.Len) == p.Addr
}

// NumAddrs returns the number of addresses covered by p.
func (p Prefix) NumAddrs() uint64 {
	return 1 << (32 - p.Len)
}

// Nth returns the i-th address inside p (0-based, wrapping is the
// caller's bug and panics).
func (p Prefix) Nth(i uint32) Addr {
	if uint64(i) >= p.NumAddrs() {
		panic(fmt.Sprintf("bgp: address index %d out of %s", i, p))
	}
	return p.Addr + Addr(i)
}

// Overlaps reports whether the two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Contains(q.Addr) || q.Contains(p.Addr)
}

// Trie is a binary radix trie mapping prefixes to origin ASes, supporting
// longest-prefix-match lookup — the operation behind the paper's "group
// IPs with the same longest matched prefix into one cluster". The zero
// value is an empty trie. Trie is not safe for concurrent mutation.
type Trie struct {
	root *trieNode
	size int
}

type trieNode struct {
	child [2]*trieNode
	// set marks a real route entry (as opposed to an internal node).
	set    bool
	prefix Prefix
	origin asgraph.ASN
}

// Insert adds or replaces the route for p.
func (t *Trie) Insert(p Prefix, origin asgraph.ASN) {
	if t.root == nil {
		t.root = &trieNode{}
	}
	n := t.root
	for depth := uint8(0); depth < p.Len; depth++ {
		bit := (uint32(p.Addr) >> (31 - depth)) & 1
		if n.child[bit] == nil {
			n.child[bit] = &trieNode{}
		}
		n = n.child[bit]
	}
	if !n.set {
		t.size++
	}
	n.set = true
	n.prefix = p
	n.origin = origin
}

// Lookup returns the longest matching prefix for a and its origin AS.
func (t *Trie) Lookup(a Addr) (Prefix, asgraph.ASN, bool) {
	n := t.root
	var best *trieNode
	for depth := uint8(0); n != nil; depth++ {
		if n.set {
			best = n
		}
		if depth == 32 {
			break
		}
		bit := (uint32(a) >> (31 - depth)) & 1
		n = n.child[bit]
	}
	if best == nil {
		return Prefix{}, 0, false
	}
	return best.prefix, best.origin, true
}

// Remove deletes the exact route for p, reporting whether it existed.
// Interior nodes are left in place; the trie is rebuilt wholesale by the
// bootstrap on table refresh, so lazy deletion is fine.
func (t *Trie) Remove(p Prefix) bool {
	n := t.root
	for depth := uint8(0); n != nil && depth < p.Len; depth++ {
		bit := (uint32(p.Addr) >> (31 - depth)) & 1
		n = n.child[bit]
	}
	if n == nil || !n.set || n.prefix != p {
		return false
	}
	n.set = false
	t.size--
	return true
}

// Len returns the number of routes in the trie.
func (t *Trie) Len() int { return t.size }

// Walk visits every route in the trie in address order.
func (t *Trie) Walk(fn func(Prefix, asgraph.ASN) bool) {
	var rec func(n *trieNode) bool
	rec = func(n *trieNode) bool {
		if n == nil {
			return true
		}
		if n.set && !fn(n.prefix, n.origin) {
			return false
		}
		if !rec(n.child[0]) {
			return false
		}
		return rec(n.child[1])
	}
	rec(t.root)
}
