package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A decoder for the part of the pprof profile format the layer ledger needs:
// for every sample, its call stack as function names and its first value.
// The format is a gzipped protocol buffer (profile.proto); only varint and
// length-delimited fields matter here, the rest are skipped by wire type.

// stackSample is one profile sample: frames innermost first, inlined
// functions expanded, and the sample count.
type stackSample struct {
	frames []string
	count  int64
}

var errTruncated = errors.New("pprof: truncated message")

// protoReader walks the fields of one protocol-buffer message.
type protoReader struct{ b []byte }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next returns the next field: its number, and either its varint value or
// its length-delimited bytes. Fixed-width fields are skipped.
func (r *protoReader) next() (field int, val uint64, data []byte, err error) {
	for {
		key, err := r.varint()
		if err != nil {
			return 0, 0, nil, err
		}
		field = int(key >> 3)
		switch key & 7 {
		case 0:
			val, err = r.varint()
			return field, val, nil, err
		case 2:
			n, err := r.varint()
			if err != nil {
				return 0, 0, nil, err
			}
			if n > uint64(len(r.b)) {
				return 0, 0, nil, errTruncated
			}
			data, r.b = r.b[:n], r.b[n:]
			return field, 0, data, nil
		case 1, 5:
			n := 8
			if key&7 == 5 {
				n = 4
			}
			if len(r.b) < n {
				return 0, 0, nil, errTruncated
			}
			r.b = r.b[n:]
		default:
			return 0, 0, nil, fmt.Errorf("pprof: unsupported wire type %d", key&7)
		}
	}
}

// repeatedVarints appends the values of a repeated varint field, which
// arrives either packed (data) or one value at a time (val).
func repeatedVarints(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	r := protoReader{data}
	for len(r.b) > 0 {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// decodeProfile parses a gzipped pprof profile into stack samples.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName = map[uint64]uint64{}   // function id → string-table index
		strtab   []string
	)
	top := protoReader{raw}
	for len(top.b) > 0 {
		field, _, data, err := top.next()
		if err != nil {
			return nil, err
		}
		msg := protoReader{data}
		switch field {
		case 2: // Sample: location_id = 1, value = 2
			var s rawSample
			var values []uint64
			for len(msg.b) > 0 {
				f, v, d, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = repeatedVarints(s.locs, v, d); err != nil {
						return nil, err
					}
				case 2:
					if values, err = repeatedVarints(values, v, d); err != nil {
						return nil, err
					}
				}
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // Location: id = 1, line = 4 {function_id = 1}
			var id uint64
			var funcs []uint64
			for len(msg.b) > 0 {
				f, v, d, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4:
					line := protoReader{d}
					for len(line.b) > 0 {
						lf, lv, _, err := line.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			for len(msg.b) > 0 {
				f, v, _, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(data))
		}
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strtab)) {
					return nil, fmt.Errorf("pprof: function %d names string %d of %d", fn, idx, len(strtab))
				}
				st.frames = append(st.frames, strtab[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// hostLayers are the layers the host-share ledger names, in report order.
var hostLayers = []string{
	"sim", "shard", "gpu", "cuda", "packer", "devsched", "balancer", "interpose",
	"rpcproto", "core", "cluster", "workload", "sweep", "experiments",
}

// layerOf maps a Go function name to the repo layer (the package's last path
// element, with internal/sim/shard as "shard") that owns it, or "" for the
// runtime, the standard library and the harness itself.
func layerOf(fn string) string {
	// Cut receivers and type arguments first: they may hold other package
	// paths, as in sim.(*Queue[repro/internal/core.mapperMsg]).Get.
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := fn[:slash+1+dot]
	rest, ok := strings.CutPrefix(pkg, "repro/")
	if !ok {
		return ""
	}
	if rest == "internal/sim/shard" {
		return "shard"
	}
	return rest[strings.LastIndexByte(rest, '/')+1:]
}

// Charges for stacks that hold no repo frame.
const (
	chargeGC      = "runtime.gc"
	chargeRuntime = "runtime.other"
)

// chargeStack names the layer one sample is charged to. frames run innermost
// first.
//
// The innermost repo frame decides, unless it belongs to sim. Kernel time
// spent inside a simulated process (parking, scheduling a wakeup, queue
// handoff) is charged to the layer that asked for it: the nearest non-sim
// repo frame outward, which is inside a process exactly when another sim
// frame — the coroutine trampoline — lies further out still. With no such
// frame the stack is the kernel's own run loop under its caller, and the
// sample is sim's. Stacks without any repo frame go to the garbage collector
// or to the rest of the runtime.
func chargeStack(frames []string) string {
	first := -1
	for i, f := range frames {
		if layerOf(f) != "" {
			first = i
			break
		}
	}
	if first < 0 {
		for _, f := range frames {
			if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgsweep") ||
				strings.HasPrefix(f, "runtime.bgscavenge") {
				return chargeGC
			}
		}
		return chargeRuntime
	}
	if l := layerOf(frames[first]); l != "sim" {
		return l
	}
	for j := first + 1; j < len(frames); j++ {
		l := layerOf(frames[j])
		if l == "" || l == "sim" {
			continue
		}
		for _, outer := range frames[j+1:] {
			if layerOf(outer) == "sim" {
				return l
			}
		}
		return "sim"
	}
	return "sim"
}

// hostShares turns stack samples into per-layer percentages of all samples.
// Keys are the hostLayers, "other" for repo packages outside that list,
// chargeGC and chargeRuntime, plus "sim.self": the share of samples whose
// innermost repo frame is in sim, whoever is charged for it.
func hostShares(samples []stackSample) map[string]float64 {
	named := make(map[string]bool, len(hostLayers))
	for _, l := range hostLayers {
		named[l] = true
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.count
		l := chargeStack(s.frames)
		if !named[l] && l != chargeGC && l != chargeRuntime {
			l = "other"
		}
		counts[l] += s.count
		for _, f := range s.frames {
			if fl := layerOf(f); fl != "" {
				if fl == "sim" {
					counts["sim.self"] += s.count
				}
				break
			}
		}
	}
	out := make(map[string]float64, len(counts))
	if total == 0 {
		return out
	}
	for k, n := range counts {
		out[k] = 100 * float64(n) / float64(total)
	}
	return out
}
