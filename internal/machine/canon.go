package machine

import (
	"bytes"
	"fmt"
	"math/bits"

	"minvn/internal/icn"
)

// Canonicalization is the hottest operation in a symmetry-reduced
// search: every generated successor is scored under each non-identity
// cache permutation (5 for the paper's 3-cache config) to find the
// lexicographically smallest relabeling. Canonicalize works on the
// encoded bytes directly. For each permutation it streams the
// candidate encoding section by section straight from the input —
// cache rows in permuted order, the L2 and directory entries, the
// global queues, then each endpoint's local block — relabeling endpoint
// ids through tables built once in New. After each section it compares
// what it has produced with the same byte range of the best encoding
// so far: a larger section abandons the candidate, and once a section
// is smaller the rest is produced without comparing. Equal-length
// encodings compare like their concatenated sections, so the result is
// exactly the minimum of encode(applyPerm(st, p)) over all p, the
// reference the tests pin it against.

// permTable relabels an encoded state under one cache permutation.
type permTable struct {
	// src[j] is the cache whose row and local block land at position j.
	src [8]uint8
	// ep maps an endpoint id and ref an id+1 reference (0 = none); ids
	// at or beyond the cache count are fixed.
	ep, ref [256]uint8
	// mask maps the cache bits of a sharer bitmask (entries up to
	// 1<<caches - 1 are filled); the bits past the caches stay put.
	mask [256]uint8
}

// newPermTables builds the relabeling tables for perms[1:] (perms[0]
// is the identity). Ids past the caches map to themselves, and each
// mask entry extends the entry without its lowest set bit, so a table
// costs O(256).
func newPermTables(perms [][]int) []permTable {
	if len(perms) <= 1 {
		return nil
	}
	cacheBits := uint8(1<<len(perms[0]) - 1)
	tabs := make([]permTable, len(perms)-1)
	for i, perm := range perms[1:] {
		t := &tabs[i]
		t.ep, t.ref = identity, identity
		for c, to := range perm {
			t.src[to] = uint8(c)
			t.ep[c] = uint8(to)
			t.ref[c+1] = uint8(to) + 1
		}
		for m := uint8(1); m != 0 && m <= cacheBits; m++ {
			t.mask[m] = t.mask[m&(m-1)] | 1<<t.ep[bits.TrailingZeros8(m)]
		}
	}
	return tabs
}

// identity maps every byte to itself.
var identity = func() (t [256]uint8) {
	for i := range t {
		t[i] = uint8(i)
	}
	return t
}()

// canonScratch is the per-call reusable working set. It never escapes
// Canonicalize; the pool makes it safe under the parallel engines'
// concurrent Canonicalize calls.
type canonScratch struct {
	offs []int  // queue offsets of the input's network section
	buf  []byte // candidate encoding
	best []byte // best non-identity encoding so far
}

// Canonicalize implements symmetry reduction: among all relabelings of
// the (identical) caches, pick the lexicographically smallest
// encoding. Directories and L2 homes are distinguished by their address
// ranges and are not permuted. It panics on malformed input as decode
// does. It allocates only when a non-identity permutation wins: the
// returned copy.
func (s *System) Canonicalize(raw []byte) []byte {
	if len(s.perms) <= 1 {
		return raw
	}
	pre := s.prefixLen()
	if len(raw) < pre {
		panic(fmt.Sprintf("machine: state truncated: %d bytes for %d controllers",
			len(raw), s.cfg.Caches+1))
	}
	sc := s.canonPool.Get().(*canonScratch)
	offs, rest, err := icn.QueueOffsets(s.net, raw[pre:], sc.offs[:0])
	sc.offs = offs
	if err != nil {
		panic(fmt.Sprintf("machine: corrupt network state: %v", err))
	}
	if len(rest) != 0 {
		panic(fmt.Sprintf("machine: %d trailing bytes after network state", len(rest)))
	}
	net := raw[pre:]
	caches, row, vns := s.cfg.Caches, 4*s.cfg.Addrs, s.cfg.NumVNs
	cacheEnd := caches * row
	cacheBits := uint8(1<<caches - 1)
	l2End := pre - row // the directory entries close the prefix
	locals := 2 * vns  // index in offs of endpoint 0's first local queue

	best := raw
	changed := false
perms:
	for ti := range s.relabel {
		t := &s.relabel[ti]
		if cap(sc.buf) < len(raw) {
			sc.buf = make([]byte, 0, len(raw))
		}
		buf := sc.buf[:0]
		order := 0 // see larger
		for j := 0; j < caches; j++ {
			from := len(buf)
			r := raw[int(t.src[j])*row:][:row]
			for a := 0; a < row; a += 4 {
				buf = append(buf, r[a], r[a+1], t.ref[r[a+2]], r[a+3])
			}
			if larger(&order, buf[from:], best[from:len(buf)]) {
				continue perms
			}
		}
		for a := cacheEnd; a < l2End; a += 5 {
			sharers := t.mask[raw[a+2]&cacheBits] | raw[a+2]&^cacheBits
			buf = append(buf, raw[a], t.ref[raw[a+1]], sharers, raw[a+3], raw[a+4])
		}
		for a := l2End; a < pre; a += 4 {
			sharers := t.mask[raw[a+2]&cacheBits] | raw[a+2]&^cacheBits
			buf = append(buf, raw[a], t.ref[raw[a+1]], sharers, raw[a+3])
		}
		if larger(&order, buf[cacheEnd:], best[cacheEnd:len(buf)]) {
			continue perms
		}
		from := len(buf)
		buf = icn.AppendRelabeled(buf, net[:offs[locals]], &t.ep)
		if larger(&order, buf[from:], best[from:len(buf)]) {
			continue perms
		}
		for e := 0; e < s.endpoints; e++ {
			src := e
			if e < caches {
				src = int(t.src[e])
			}
			q := locals + src*vns
			from := len(buf)
			buf = icn.AppendRelabeled(buf, net[offs[q]:offs[q+vns]], &t.ep)
			if larger(&order, buf[from:], best[from:len(buf)]) {
				continue perms
			}
		}
		if order == 0 {
			continue
		}
		// The candidate becomes the best; the old best buffer takes
		// the next candidate.
		sc.buf, sc.best = sc.best, buf
		best = buf
		changed = true
	}
	if changed {
		// best aliases pooled scratch; copy before releasing it.
		best = append([]byte(nil), best...)
	}
	s.canonPool.Put(sc)
	return best
}

// larger compares the candidate's newest section with the same byte
// range of best while the two are still tied, and reports whether the
// candidate is larger and must be abandoned. *order is the candidate's
// standing so far: 0 while tied, -1 once smaller, after which nothing
// is compared.
func larger(order *int, section, bestSection []byte) bool {
	if *order == 0 {
		*order = bytes.Compare(section, bestSection)
	}
	return *order > 0
}
