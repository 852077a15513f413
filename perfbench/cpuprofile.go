package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// addCPUSamples charges the CPU time of a profile (runtime/pprof's
// gzipped profile.proto) to layers, adding nanoseconds into acc.
// RunScale offers no call boundary to wrap, so the deploy workload takes
// its layer split from a profile of its own process.
//
// A sample is charged to gc when any frame is collector work, to
// runtime_stack for stack growth, to runtime_sched for parking, readying
// and channel hand-off; otherwise to the leaf-most frame that belongs to
// math/rand or to one of the repository's packages, and to other when
// none does.
func addCPUSamples(acc map[string]float64, gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	for _, k := range []string{"core", "sim", "transport", "bgp", "asgraph", "math_rand", "runtime_sched", "runtime_stack", "gc", "other"} {
		acc[k] += 0
	}
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			stack = append(stack, p.locFuncs[loc]...)
		}
		acc[classify(stack)] += float64(s.value)
	}
	return nil
}

var (
	gcFrames    = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.GC"}
	stackFrames = []string{"runtime.newstack", "runtime.copystack", "runtime.morestack"}
	schedFrames = []string{"runtime.park_m", "runtime.schedule", "runtime.findRunnable", "runtime.ready", "runtime.goready",
		"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.gopark", "runtime.mcall", "runtime.goexit0",
		"runtime.notesleep", "runtime.notewakeup", "runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.newproc",
		"runtime.lock2", "runtime.unlock2", "runtime.futex"}
	layerPkgs = map[string]string{
		"asap/internal/core":          "core",
		"asap/internal/sim":           "sim",
		"asap/internal/transport":     "transport",
		"asap/internal/transport/udp": "transport",
		"asap/internal/bgp":           "bgp",
		"asap/internal/asgraph":       "asgraph",
		"math/rand":                   "math_rand",
	}
)

func anyFrame(stack, prefixes []string) bool {
	for _, f := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// classify charges one stack (leaf first) to a layer.
func classify(stack []string) string {
	switch {
	case anyFrame(stack, gcFrames):
		return "gc"
	case anyFrame(stack, stackFrames):
		return "runtime_stack"
	case anyFrame(stack, schedFrames):
		return "runtime_sched"
	}
	for _, f := range stack {
		if l, ok := layerPkgs[funcPackage(f)]; ok {
			return l
		}
	}
	return "other"
}

// funcPackage is the import path of a profile function name such as
// "asap/internal/core.(*Node).handle".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// --- minimal profile.proto decoder ---

type profSample struct {
	locs  []uint64
	value int64
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]string // location id -> function names, innermost first
}

type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("cpu profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, fmt.Errorf("cpu profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, fmt.Errorf("cpu profile: short fixed64")
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, fmt.Errorf("cpu profile: bad length")
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, fmt.Errorf("cpu profile: short fixed32")
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("cpu profile: wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbInts reads a repeated integer field, packed or not.
func pbInts(f pbField) []uint64 {
	if f.wire == 0 {
		return []uint64{f.v}
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}

func decodeProfile(raw []byte) (*profile, error) {
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]int64{}
	locLines := map[uint64][]uint64{}
	p := &profile{locFuncs: map[uint64][]string{}}
	for _, f := range top {
		switch f.num {
		case 2: // sample
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var s profSample
			for _, sf := range fs {
				switch sf.num {
				case 1:
					s.locs = append(s.locs, pbInts(sf)...)
				case 2:
					if vs := pbInts(sf); len(vs) > 0 {
						s.value = int64(vs[len(vs)-1]) // the last value is CPU nanoseconds
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.v
				case 4: // line
					ls, err := pbFields(lf.b)
					if err != nil {
						return nil, err
					}
					for _, x := range ls {
						if x.num == 1 {
							fns = append(fns, x.v)
						}
					}
				}
			}
			locLines[id] = fns
		case 5: // function
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = int64(ff.v)
				}
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(f.b))
		}
	}
	for loc, fns := range locLines {
		for _, fn := range fns {
			if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
				p.locFuncs[loc] = append(p.locFuncs[loc], strs[i])
			}
		}
	}
	return p, nil
}
