package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile is the benchmark process's CPU profile of one traced phase,
// reduced to CPU time per layer and per pipeline stage.
type cpuProfile struct {
	total  int64            // ns
	layers map[string]int64 // ns by cpuLayers bucket
	stages map[string]int64 // ns by stage whose Run is on the stack
}

// profiler captures a CPU profile into memory between start and stop.
type profiler struct{ buf bytes.Buffer }

func (p *profiler) start() error { return pprof.StartCPUProfile(&p.buf) }

func (p *profiler) stop() (*cpuProfile, error) {
	pprof.StopCPUProfile()
	return decodeProfile(p.buf.Bytes())
}

// sitePackages are the site simulators, bucketed together as "sites".
var sitePackages = map[string]bool{"phishkit": true, "cloak": true, "botdetect": true}

// layerOf maps a stack (leaf first) to its layer: the innermost frame in a
// repository package decides, background GC mark work is "gc", and
// everything else, the benchmark's own frames included, is "other".
func layerOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "other"
		}
		pkg, ok := strings.CutPrefix(fn, "crawlerbox/internal/")
		if !ok {
			continue
		}
		pkg, _, _ = strings.Cut(pkg, ".")
		if sitePackages[pkg] {
			return "sites"
		}
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") {
			return "gc"
		}
	}
	return "other"
}

// stageOf names the pipeline stage whose Run method is on the stack.
func stageOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, "crawlerbox/internal/crawlerbox.")
		if !ok {
			continue
		}
		rest = strings.NewReplacer("(*", "", ")", "").Replace(rest)
		if name, ok := strings.CutSuffix(rest, "Stage.Run"); ok {
			return strings.ToLower(name)
		}
	}
	return ""
}

// decodeProfile reads the gzipped profile.proto that runtime/pprof writes.
// Only the fields needed here are decoded: samples (location IDs and
// values), locations (function IDs per inlined line), functions (name
// string index) and the string table.
func decodeProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location ID -> function IDs, leaf first
		funcs   = map[uint64]int64{}    // function ID -> name string index
		strs    []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &cpuProfile{layers: map[string]int64{}, stages: map[string]int64{}}
	for _, s := range samples {
		if len(s.vals) < 2 {
			continue
		}
		ns := s.vals[1]
		var stack []string
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				if i := funcs[fn]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.total += ns
		p.layers[layerOf(stack)] += ns
		if st := stageOf(stack); st != "" {
			p.stages[st] += ns
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field that may arrive packed
// (b != nil) or as a single value.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with the varint value
// or the length-delimited bytes of each field.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}
