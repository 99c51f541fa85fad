package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// foldProfile reads a CPU profile written by runtime/pprof (gzipped
// profile.proto) and returns each group's share of the samples:
//
//   - every package, by self time (the innermost frame of each sample);
//   - the cpu.* groups the benchmark reports: cache, directory, machine,
//     invariant and mesif (mesif plus coherence) by self time in those
//     packages; json, net (net, net/http, net/textproto, internal/poll)
//     and syscall (syscall entry points) by self time; gc by any frame in
//     the collector (runtime.gc*, background sweep and scavenge).
//
// Only the handful of profile.proto fields the fold needs are decoded.
func foldProfile(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}

	type sample struct {
		locs  []uint64
		value int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id → function ids, innermost first
	funcName := map[uint64]int64{}    // function id → string table index
	var strs []string
	err = protoFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals := appendVarints(nil, v, b)
					if len(vals) > 0 {
						s.value = int64(vals[0]) // sample count
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
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
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	name := func(fn uint64) string {
		if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}

	fold := map[string]float64{}
	var total float64
	for _, s := range samples {
		if len(s.locs) == 0 || len(locFuncs[s.locs[0]]) == 0 {
			continue
		}
		w := float64(s.value)
		total += w
		leaf := name(locFuncs[s.locs[0]][0])
		pkg := packageOf(leaf)
		fold["pkg "+pkg] += w
		switch pkg {
		case "haswellep/internal/cache", "haswellep/internal/directory",
			"haswellep/internal/machine", "haswellep/internal/invariant":
			fold[strings.TrimPrefix(pkg, "haswellep/internal/")] += w
		case "haswellep/internal/mesif", "haswellep/internal/coherence":
			fold["mesif"] += w
		case "encoding/json":
			fold["json"] += w
		case "net", "net/http", "net/textproto", "internal/poll":
			fold["net"] += w
		case "syscall", "internal/runtime/syscall":
			fold["syscall"] += w
		}
	gc:
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				n := name(fn)
				if strings.HasPrefix(n, "runtime.gc") || n == "runtime.bgsweep" || n == "runtime.bgscavenge" {
					fold["gc"] += w
					break gc
				}
			}
		}
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	for k := range fold {
		fold[k] /= total
	}
	return fold, nil
}

// packageOf returns the import path of a symbol name such as
// "haswellep/internal/cache.(*SetAssoc).Lookup" or "runtime.mallocgc".
func packageOf(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // type arguments may hold paths
	}
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// topPackages renders the largest package shares of a fold.
func topPackages(fold map[string]float64, n int) string {
	var pkgs []string
	for k := range fold {
		if strings.HasPrefix(k, "pkg ") {
			pkgs = append(pkgs, k)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return fold[pkgs[i]] > fold[pkgs[j]] })
	var b strings.Builder
	for i, k := range pkgs {
		if i == n {
			break
		}
		fmt.Fprintf(&b, " %s=%.1f%%", strings.TrimPrefix(k, "pkg "), 100*fold[k])
	}
	return b.String()
}

// protoFields calls f for each top-level field of a protobuf message: v is
// the value of a varint field, b the payload of a length-delimited one.
func protoFields(msg []byte, f func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := f(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value when
// unpacked (b nil), every varint of b when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
