package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A hand decoder for the pprof wire format (profile.proto), kept to the
// four messages attribution needs, so the traced run adds no module
// dependency. Field numbers are those of
// github.com/google/pprof/proto/profile.proto.

// profile is a decoded CPU profile: per sample, the call stack as
// function names (leaf first) and the sample count.
type profile struct {
	samples []profSample
}

type profSample struct {
	stack []string // leaf first
	count int64
}

// pbuf reads protobuf wire format.
type pbuf struct{ b []byte }

var errTruncated = errors.New("truncated protobuf")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflows 64 bits")
}

// field reads one field: its number, and either its varint value or its
// length-delimited bytes.
func (p *pbuf) field() (num int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			return 0, 0, nil, err
		}
		if n > uint64(len(p.b)) {
			return 0, 0, nil, errTruncated
		}
		data, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			return 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("unsupported wire type %d", key&7)
	}
	return num, v, data, err
}

// repeated appends a repeated integer field that may arrive packed
// (data) or one value at a time (v).
func repeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a gzip-compressed (or raw) profile.proto.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost inlined frame first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		num, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s rawSample
			q := pbuf{data}
			for len(q.b) > 0 {
				n, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = repeated(s.locs, v, d)
				case 2:
					s.values, err = repeated(s.values, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					l := pbuf{d}
					for len(l.b) > 0 {
						ln, lv, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, v, _, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	out := &profile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{count: int64(s.values[0])} // value 0 of a CPU profile is samples/count
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out.samples = append(out.samples, ps)
	}
	return out, nil
}

// profileLayers are the packages whose samples are a layer's: a function
// of ix/internal/<name>[/...] belongs to <name>.cpu_share.
var profileLayers = []string{
	"sim", "timerwheel", "fabric", "nicsim", "wire", "netstack", "mem", "tcp", "core", "dune",
	"libix", "linuxstack", "mtcpstack", "ixnet", "apps", "mutilate", "stats", "harness",
}

// profileClasses is every class a sample can fall in; shares over them
// sum to 1.
var profileClasses = func() []string {
	var out []string
	for _, l := range profileLayers {
		out = append(out, l+".cpu_share")
	}
	return append(out, "bench.cpu_share", "runtime.gc_share", "runtime.map_share", "runtime.malloc_share",
		"runtime.memmove_share", "runtime.sched_share", "runtime.other_share")
}()

// Runtime functions by class, as prefixes of the function name.
var (
	gcFuncs = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcMark", "runtime.gcStart",
		"runtime.gcSweep", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.scanobject",
		"runtime.scanblock", "runtime.scanstack", "runtime.greyobject", "runtime.markroot", "runtime.wbBufFlush",
		"runtime.gcWriteBarrier", "runtime.(*mspan).sweep", "runtime.(*sweepLocked)", "runtime.(*gcWork)",
		"runtime.(*gcControllerState)", "runtime.gcFlushBgCredit", "runtime.(*mheap).reclaim",
	}
	mapFuncs = []string{
		"internal/runtime/maps.", "runtime.map", "runtime.memhash", "runtime.aeshash", "runtime.strhash",
		"runtime.nilinterhash", "runtime.interhash", "runtime.typehash",
	}
	mallocFuncs = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice", "runtime.growslice",
		"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap).alloc", "runtime.nextFreeFast",
		"runtime.(*mspan).nextFreeIndex", "runtime.heapSetType", "runtime.deductAssistCredit", "runtime.publicationBarrier",
	}
	memmoveFuncs = []string{"runtime.memmove", "runtime.memclr", "runtime.typedmemmove", "runtime.duffcopy", "runtime.duffzero"}
	schedFuncs   = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark", "runtime.goready", "runtime.ready",
		"runtime.chanrecv", "runtime.chansend", "runtime.send", "runtime.recv", "runtime.futex", "runtime.notesleep",
		"runtime.notewakeup", "runtime.notetsleep", "runtime.mcall", "runtime.gosched", "runtime.goschedImpl",
		"runtime.runqget", "runtime.runqput", "runtime.runqgrab", "runtime.runqsteal", "runtime.stealWork", "runtime.wakep",
		"runtime.startm", "runtime.stopm", "runtime.execute", "runtime.casgstatus", "runtime.usleep", "runtime.osyield",
		"runtime.lock", "runtime.unlock", "runtime.acquireSudog", "runtime.releaseSudog", "runtime.resetspinning",
		"runtime.checkTimers", "runtime.pidleget", "runtime.pidleput", "runtime.mPark", "runtime.goexit0",
		"runtime.newproc", "runtime.gfget", "runtime.gfput", "runtime.dropg", "runtime.globrunq", "runtime.injectglist",
		"runtime.netpoll", "runtime.mstart", "runtime.morestack", "runtime.newstack", "runtime.copystack",
	}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// classOfFrame names the class one function decides, or "" when the
// function is neutral and the sample belongs to whoever called it (the
// standard library outside the runtime, runtime helpers with no class).
func classOfFrame(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "ix/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "/."); i >= 0 {
			pkg = rest[:i]
		}
		if pkg == "app" {
			pkg = "apps"
		}
		for _, l := range profileLayers {
			if l == pkg {
				return l + ".cpu_share"
			}
		}
		return "runtime.other_share" // ix packages off the packet path (cost, cp, memprobe, faults)
	}
	switch {
	case strings.HasPrefix(fn, "ix/bench") || strings.HasPrefix(fn, "main."):
		return "bench.cpu_share"
	case hasAnyPrefix(fn, mapFuncs):
		return "runtime.map_share"
	case hasAnyPrefix(fn, mallocFuncs):
		return "runtime.malloc_share"
	case hasAnyPrefix(fn, memmoveFuncs):
		return "runtime.memmove_share"
	case hasAnyPrefix(fn, schedFuncs):
		return "runtime.sched_share"
	}
	return ""
}

// classOfStack attributes one sample. A garbage-collector frame anywhere
// in the stack makes it GC work (assists run under the allocating
// layer's frames); otherwise the first frame from the leaf that decides
// a class wins, which is pprof's flat view with neutral library frames
// charged to their caller. One exception keeps the tracer honest: runtime
// work (a map lookup, an allocation) done directly for the benchmark's
// own wrappers is the benchmark's, not the runtime class's.
func classOfStack(stack []string) string {
	for _, fn := range stack {
		if hasAnyPrefix(fn, gcFuncs) {
			return "runtime.gc_share"
		}
	}
	class := ""
	for _, fn := range stack {
		c := classOfFrame(fn)
		switch {
		case c == "":
			continue
		case strings.HasPrefix(c, "runtime.") && c != "runtime.other_share":
			if class == "" {
				class = c
			}
			continue // keep walking: whose runtime work is it?
		case c == "bench.cpu_share" || class == "":
			return c
		}
		return class
	}
	if class != "" {
		return class
	}
	return "runtime.other_share"
}

// attribute adds the profile's samples to shares by class and returns
// how many it added.
func (p *profile) attribute(shares map[string]float64) int64 {
	var n int64
	for _, s := range p.samples {
		shares[classOfStack(s.stack)] += float64(s.count)
		n += s.count
	}
	return n
}
