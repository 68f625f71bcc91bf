package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// shareCategories are the layers a CPU profile sample is attributed
// to. rng is math/rand plus the fuzzer's counting source; mutate the
// mutator (fuzz/mutate.go); fuzz the rest of the fuzz loop (queue,
// scheduling, cmplog); frontend the compiler packages; runtime the Go
// runtime's own work (allocation, GC, scheduling); other anything
// else, such as the profiler itself.
var shareCategories = []string{
	"bytecode", "rng", "mutate", "fuzz", "coverage", "campaign", "journal",
	"telemetry", "fleet", "frontend", "runtime", "other",
}

// attribute decodes a runtime/pprof CPU profile and adds each
// category's sample count to counts. A sample goes to the first frame,
// walking from the leaf towards the root, that belongs to a category;
// standard-library frames other than math/rand and the runtime's own
// work pass through to their caller, so an encoder or a syscall counts
// for the package that called it.
func attribute(gz []byte, counts map[string]int64) error {
	p, err := decodeProfile(gz)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		cat := "other"
	walk:
		for _, id := range s.locs {
			for _, fid := range p.locs[id] {
				fn := p.funcs[fid]
				if c := category(fn.name, fn.file); c != "" {
					cat = c
					break walk
				}
			}
		}
		counts[cat] += s.values[0]
	}
	return nil
}

// category maps one function to a share category, or "" when the
// function passes the sample on to its caller.
func category(name, file string) string {
	pkg := funcPackage(name)
	switch {
	case pkg == "math/rand" || pkg == "math/rand/v2":
		return "rng"
	case strings.HasPrefix(pkg, "repro/internal/"):
		mod, _, _ := strings.Cut(strings.TrimPrefix(pkg, "repro/internal/"), "/")
		switch mod {
		case "fuzz":
			switch {
			case strings.Contains(name, "countingSource"):
				return "rng"
			case strings.HasSuffix(file, "/mutate.go"):
				return "mutate"
			}
			return "fuzz"
		case "bytecode", "coverage", "campaign", "journal", "telemetry", "fleet":
			return mod
		case "lang", "sema", "cfg", "balllarus", "instrument", "analysis":
			return "frontend"
		}
		return "other"
	case pkg == "runtime":
		for _, p := range runtimePassThrough {
			if strings.HasPrefix(name, p) {
				return ""
			}
		}
		return "runtime"
	}
	return ""
}

// runtimePassThrough lists runtime functions that do the caller's own
// work (copies, compares, hashing, map access, clock reads, preemption
// points) and so count for the caller.
var runtimePassThrough = []string{
	"runtime.mem", "runtime.map", "runtime.cmpstring", "runtime.duff",
	"runtime.typedmemmove", "runtime.typedslicecopy", "runtime.nanotime",
	"runtime.walltime", "runtime.asyncPreempt", "runtime.strhash",
	"runtime.aeshash", "runtime.efaceeq", "runtime.ifaceeq",
	"runtime.interhash", "runtime.nilinterhash",
}

// funcPackage returns the import path of a symbol name such as
// "repro/internal/fuzz.(*mutator).havoc".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// profile is the part of a pprof profile the attribution reads.
type profile struct {
	samples []sample
	// locs maps a location id to its function ids, innermost inlined
	// function first.
	locs  map[uint64][]uint64
	funcs map[uint64]function
}

type sample struct {
	locs   []uint64
	values []int64
}

type function struct{ name, file string }

// decodeProfile decodes the protocol-buffer encoding of a gzipped
// pprof profile (github.com/google/pprof proto/profile.proto).
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]function)}
	var strs []string
	type rawFunc struct{ id, name, file uint64 }
	var rawFuncs []rawFunc
	err = fields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return repeated(v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fids []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fids
			return err
		case 5: // function
			var f rawFunc
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					f.id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
				return nil
			})
			rawFuncs = append(rawFuncs, f)
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, f := range rawFuncs {
		if f.name >= uint64(len(strs)) || f.file >= uint64(len(strs)) {
			return nil, errors.New("function name out of string table")
		}
		p.funcs[f.id] = function{name: strs[f.name], file: strs[f.file]}
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field's
// number and either its scalar value or, for length-delimited fields,
// its bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated delivers a repeated varint field, packed (data) or not (v).
func repeated(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}
