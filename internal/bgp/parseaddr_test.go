package bgp

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// parseAddrReference is the original split-and-Atoi ParseAddr, kept as
// the executable specification of the accept set: the in-place parser
// must agree with it on every input, strconv.Atoi quirks (leading zeros,
// signs, "-0") included.
func parseAddrReference(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("bgp: invalid address %q", s)
	}
	var a uint32
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, fmt.Errorf("bgp: invalid address %q", s)
		}
		a = a<<8 | uint32(v)
	}
	return Addr(a), nil
}

// parseAddrSeeds covers the accept set's edges: plain quads, the Atoi
// quirks, field-count and separator errors, out-of-range and overflowing
// fields, and a run of leading zeros long enough to leave Atoi's fast
// path.
var parseAddrSeeds = []string{
	"0.0.0.0", "255.255.255.255", "10.1.200.3", "192.168.0.1",
	"010.001.000.007", "+1.2.3.4", "-0.0.0.0", "1.-0.+0.255",
	"00000000000000000000000255.1.1.1",
	"", ".", "...", "1.2.3", "1.2.3.4.", ".1.2.3.4", "1.2.3.4.5", "1..2.3",
	"256.0.0.0", "1.2.3.-1", "1.2.3.+", "1.2.3.-", "+-1.2.3.4", "1.2.3.4 ",
	" 1.2.3.4", "1.2.3.0x4", "1.2.3.1_0", "1.2.3.99999999999999999999",
	"1.2.3.4\x00", "１.2.3.4",
}

// FuzzParseAddr holds the in-place ParseAddr to the reference: the same
// address and the same accept-or-reject verdict for every input. The IP
// string arrives off the wire in MsgJoin, so the parser reads untrusted
// bytes.
func FuzzParseAddr(f *testing.F) {
	for _, s := range parseAddrSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, gotErr := ParseAddr(s)
		want, wantErr := parseAddrReference(s)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("ParseAddr(%q) error = %v, reference error = %v", s, gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("ParseAddr(%q) = %v, reference = %v", s, got, want)
		}
	})
}

// TestParseAddrAllocs asserts ParseAddr allocates nothing on a valid
// address (wired into make check via allocgate).
func TestParseAddrAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	n := testing.AllocsPerRun(200, func() {
		if _, err := ParseAddr("10.100.0.1"); err != nil {
			panic(err)
		}
	})
	if n != 0 {
		t.Fatalf("ParseAddr allocates %.1f times per call, want 0", n)
	}
}
