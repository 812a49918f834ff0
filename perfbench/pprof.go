package main

// Host attribution: a runtime/pprof CPU profile of the benchmark process
// folded into self-time shares per package. The profile is a gzipped
// profile.proto message; only the fields needed for self time are
// decoded (samples, locations, functions, string table).

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// selfShares returns each package's share of the profile's self time: a
// sample counts for the innermost function of its leaf location. The
// shares are keyed by hostPackage and sum to 1.
func selfShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}  // function id -> string index
		leafFunc  = map[uint64]uint64{} // location id -> innermost function id
		leafCount = map[uint64]int64{}  // location id -> samples with it as leaf
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var loc []uint64
			var val []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					loc = appendVarints(loc, v, b)
				case 2:
					val = appendVarints(val, v, b)
				}
				return nil
			})
			if err == nil && len(loc) > 0 && len(val) > 0 {
				leafCount[loc[0]] += int64(val[0])
			}
			return err
		case 4: // Location
			var id, fn uint64
			first := true
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line: the first is the innermost inlined frame
					if first {
						first = false
						return eachField(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			leafFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
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
		return nil, err
	}
	var total int64
	self := map[string]int64{}
	for loc, n := range leafCount {
		name := ""
		if i := funcName[leafFunc[loc]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		self[hostPackage(name)] += n
		total += n
	}
	shares := make(map[string]float64, len(self))
	if total == 0 {
		return shares, nil
	}
	for pkg, n := range self {
		shares[pkg] = float64(n) / float64(total)
	}
	return shares, nil
}

// hostPackage maps a symbol such as "repro/internal/ssd.(*Device).Submit"
// to the name its self time is reported under: the repository package
// ("ssd"), "perfbench" for the benchmark itself, "runtime" for the Go
// runtime and its internal packages, and "other" for the rest.
func hostPackage(sym string) string {
	if i := strings.IndexAny(sym, "(["); i >= 0 {
		sym = sym[:i]
	}
	slash := strings.LastIndex(sym, "/")
	pkg := sym
	if dot := strings.Index(sym[slash+1:], "."); dot >= 0 {
		pkg = sym[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.TrimPrefix(pkg, "repro/internal/")
	case pkg == "main", pkg == "repro/perfbench": // the latter in test binaries
		return "perfbench"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// eachField calls fn for every field of one protobuf message: v holds a
// varint or fixed value, b the bytes of a length-delimited field.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b) or not (v).
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
