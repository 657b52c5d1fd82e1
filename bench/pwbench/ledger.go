package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// layers are the ledger's buckets: every internal package, plus cmd
// (package main), gc (garbage-collector work) and other (the runtime, the
// standard library and anything unlisted). Every sample lands in exactly
// one bucket, so a profile's fractions sum to 1.
var layers = []string{
	"analysis", "campaign", "capture", "core", "experiments", "faults",
	"flowstore", "health", "hostsim", "journal", "lanes", "livemon",
	"netflow", "obs", "pcap", "prof", "remedy", "retry", "rng", "sim",
	"sketch", "storefault", "switchsim", "telemetry", "testbed",
	"trafficgen", "units", "wire", "cmd", "gc", "other",
}

// gcFrames mark a sample as garbage-collector work: the background mark
// workers, mark assists charged to allocating goroutines, and the
// background sweeper and scavenger.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

const internalPrefix = "repro/internal/"

// layerOf attributes a stack (innermost frame first) to its layer: gc if
// any frame is garbage-collector work, else the innermost internal
// package frame, else cmd for a package main frame, else other.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return "gc"
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg := rest[:strings.IndexAny(rest+".", "./")]
			if isLayer(pkg) {
				return pkg
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			return "cmd"
		}
	}
	return "other"
}

func isLayer(name string) bool {
	for _, l := range layers {
		if l == name {
			return true
		}
	}
	return false
}

// sample is one profile sample: its stack of function names, innermost
// first, and its values in the profile's sample-type order.
type sample struct {
	stack  []string
	values []int64
}

// profile is the part of a pprof profile the ledger reads.
type profile struct {
	types   []string // sample type names, e.g. "cpu" or "alloc_space"
	samples []sample
}

// valueIndex returns the position of the named sample type.
func (p *profile) valueIndex(name string) (int, error) {
	for i, t := range p.types {
		if t == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q samples (types %v)", name, p.types)
}

// fold sums the named sample value per layer.
func (p *profile) fold(valueType string) (map[string]float64, float64, error) {
	vi, err := p.valueIndex(valueType)
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string]float64)
	var total float64
	for _, s := range p.samples {
		v := float64(s.values[vi])
		out[layerOf(s.stack)] += v
		total += v
	}
	return out, total, nil
}

// topSelf returns the n functions with the most self value (the sample's
// innermost frame), largest first.
func (p *profile) topSelf(valueType string, n int) ([]string, []float64, error) {
	vi, err := p.valueIndex(valueType)
	if err != nil {
		return nil, nil, err
	}
	self := make(map[string]float64)
	for _, s := range p.samples {
		if len(s.stack) > 0 {
			self[s.stack[0]] += float64(s.values[vi])
		}
	}
	names := make([]string, 0, len(self))
	for fn := range self {
		names = append(names, fn)
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > n {
		names = names[:n]
	}
	vals := make([]float64, len(names))
	for i, fn := range names {
		vals[i] = self[fn]
	}
	return names, vals, nil
}

// ledger folds a traced child's CPU and allocs profiles into the
// <layer>.cpu_frac and <layer>.alloc_mb metrics and prints the top
// functions by self CPU.
func (b *bench) ledger(t *tally, cpuPath, memPath string) error {
	cpu, err := readProfile(cpuPath)
	if err != nil {
		return err
	}
	byLayer, total, err := cpu.fold("cpu")
	if err != nil {
		return err
	}
	if total == 0 {
		return errors.New("CPU profile holds no samples")
	}
	for _, l := range layers {
		t.layer[l+".cpu_frac"] = byLayer[l] / total
	}
	mem, err := readProfile(memPath)
	if err != nil {
		return err
	}
	allocs, _, err := mem.fold("alloc_space")
	if err != nil {
		return err
	}
	for _, l := range layers {
		t.layer[l+".alloc_mb"] = allocs[l] / 1e6
	}
	names, vals, err := cpu.topSelf("cpu", 15)
	if err != nil {
		return err
	}
	fmt.Fprintf(b.out, "  top functions by self CPU (%.2fs sampled):\n", total/1e9)
	for i, fn := range names {
		fmt.Fprintf(b.out, "    %5.1f%%  %s\n", 100*vals[i]/total, fn)
	}
	return nil
}

func readProfile(path string) (*profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := parseProfile(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// parseProfile decodes a gzip-compressed pprof protobuf (profile.proto)
// as runtime/pprof writes it, keeping sample types, samples and the
// function names of their stacks. Inlined frames are expanded, innermost
// first, as pprof does.
func parseProfile(r io.Reader) (*profile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		typeIdx   []int64
		samples   []rawSample
		locFuncs  = make(map[uint64][]uint64) // location id -> function ids, innermost first
		funcNames = make(map[uint64]int64)    // function id -> name string index
	)
	err = pbFields(raw, func(field int, v uint64, msg []byte) error {
		switch field {
		case 1: // sample_type
			return pbFields(msg, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample; location_id (1) and value (2) may be packed
			var s rawSample
			err := pbFields(msg, func(f int, v uint64, packed []byte) error {
				if f != 1 && f != 2 {
					return nil
				}
				vals, err := pbRepeated(v, packed)
				for _, v := range vals {
					if f == 1 {
						s.locs = append(s.locs, v)
					} else {
						s.values = append(s.values, int64(v))
					}
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(msg, func(f int, v uint64, line []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbFields(line, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, i := range typeIdx {
		p.types = append(p.types, str(i))
	}
	for _, rs := range samples {
		if len(rs.values) != len(p.types) {
			return nil, fmt.Errorf("sample has %d values for %d types", len(rs.values), len(p.types))
		}
		s := sample{values: rs.values}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// pbFields walks the fields of one protobuf message, calling fn with
// each varint field's value or each length-delimited field's bytes (nil
// for varints). Fixed-width fields are skipped: none of the
// profile.proto fields the ledger reads has one.
func pbFields(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("truncated protobuf key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errors.New("truncated protobuf varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("truncated protobuf fixed-width field")
			}
			b = b[size:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("truncated protobuf bytes")
			}
			msg := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, msg); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// pbRepeated returns the elements of a repeated varint field occurrence:
// v itself, or every varint of packed when the field was length-delimited.
func pbRepeated(v uint64, packed []byte) ([]uint64, error) {
	if packed == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(packed) > 0 {
		v, n := pbVarint(packed)
		if n == 0 {
			return out, errors.New("truncated packed varint")
		}
		out = append(out, v)
		packed = packed[n:]
	}
	return out, nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
