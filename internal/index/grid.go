package index

import (
	"math"
	"slices"

	"github.com/densitymountain/edmstream/internal/distance"
	"github.com/densitymountain/edmstream/internal/stream"
)

// Grid is a uniform spatial hash over seed coordinates. Space is
// partitioned into axis-aligned buckets of side `side` (the
// cluster-cell radius r), and only non-empty buckets are materialized,
// so memory is proportional to the number of seeds. A radius-r
// nearest-seed probe then touches at most the 3^d buckets neighboring
// the query point's bucket, and an unbounded nearest search expands
// bucket shells outward until no closer seed can exist.
//
// The grid only buckets numeric (Euclidean) seeds. Token-set seeds of
// degenerate mixed streams live in a side set: they are at +Inf
// distance from every numeric probe (so they never answer one), and
// token-set probes scan the side set linearly — exactly the answers
// the linear scan would give, keeping the index choice invisible in
// the clustering output even on mixed streams.
type Grid struct {
	side float64
	// buckets maps the hash of a bucket's integer coordinates to a
	// chain of buckets with that hash (collisions are resolved by
	// comparing coordinates exactly, so hashing is purely a lookup
	// accelerator — no string keys, no per-lookup formatting).
	buckets    map[uint64]*gridBucket
	nbuckets   int
	vectorless map[int64]stream.Point
	n          int
	// Probe scratch, reused across calls so the per-point hot path
	// does not allocate: centerBuf holds the query's bucket
	// coordinates, loBuf/hiBuf the per-axis window bounds, and
	// offBuf/coordBuf the box walker's cursor. They never overlap: a
	// probe uses centerBuf for its whole duration, window/shell
	// enumeration uses loBuf/hiBuf, and forBox (called beneath both)
	// uses offBuf/coordBuf.
	centerBuf, loBuf, hiBuf, offBuf, coordBuf []int64

	// Window cache: consecutive probes from the same bucket (bursty
	// streams) reuse the occupied-bucket set of the previous probe
	// instead of re-walking the (2m+1)^d window through the bucket map.
	// gen is bumped by every Insert/Remove, which is exactly when the
	// occupied-bucket set can change, so a hit is always exact.
	gen, winGen uint64
	winM        int64
	winCenter   []int64
	winBuckets  []*gridBucket
	winValid    bool
}

type gridBucket struct {
	coords  []int64
	entries []gridEntry
	// next chains buckets whose coordinate hashes collide.
	next *gridBucket
}

type gridEntry struct {
	id  int64
	vec []float64
}

// NewGrid creates an empty grid with the given bucket side length,
// which must be positive. It should equal the radius used for
// NearestWithin probes: probes with r ≤ side stay within the 3^d
// neighborhood; larger radii widen the probe window proportionally.
func NewGrid(side float64) *Grid {
	if !(side > 0) {
		panic("index: grid bucket side must be positive")
	}
	return &Grid{
		side:       side,
		buckets:    make(map[uint64]*gridBucket),
		vectorless: make(map[int64]stream.Point),
	}
}

// Len implements SeedIndex.
func (g *Grid) Len() int { return g.n }

// Kind implements SeedIndex.
func (g *Grid) Kind() string { return "grid" }

// coordsOf quantizes a vector to integer bucket coordinates, writing
// them into the grid's center scratch buffer (valid until the next
// coordsOf call).
func (g *Grid) coordsOf(vec []float64) []int64 {
	coords := g.centerBuf[:0]
	for _, v := range vec {
		coords = append(coords, int64(math.Floor(v/g.side)))
	}
	g.centerBuf = coords
	return coords
}

// hashCoords mixes bucket coordinates into a 64-bit hash (FNV-1a over
// the coordinate words). Collisions are legal — lookup compares
// coordinates exactly — they only cost a chain hop.
func hashCoords(coords []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range coords {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// lookup returns the occupied bucket at coords, or nil.
func (g *Grid) lookup(coords []int64) (*gridBucket, bool) {
	for b := g.buckets[hashCoords(coords)]; b != nil; b = b.next {
		if slices.Equal(b.coords, coords) {
			return b, true
		}
	}
	return nil, false
}

// forAllBuckets invokes fn for every occupied bucket (chains
// included). It backs the direct-scan fallbacks of sparse or
// high-dimensional probes.
func (g *Grid) forAllBuckets(fn func(*gridBucket)) {
	for _, b := range g.buckets {
		for ; b != nil; b = b.next {
			fn(b)
		}
	}
}

// Insert implements SeedIndex.
func (g *Grid) Insert(id int64, p stream.Point) {
	g.gen++
	if p.Vector == nil {
		g.vectorless[id] = p
		g.n++
		return
	}
	coords := g.coordsOf(p.Vector)
	b, ok := g.lookup(coords)
	if !ok {
		// The bucket owns its coordinates: coords is scratch space.
		owned := append([]int64(nil), coords...)
		h := hashCoords(owned)
		b = &gridBucket{coords: owned, next: g.buckets[h]}
		g.buckets[h] = b
		g.nbuckets++
	}
	b.entries = append(b.entries, gridEntry{id: id, vec: p.Vector})
	g.n++
}

// Remove implements SeedIndex.
func (g *Grid) Remove(id int64, p stream.Point) {
	g.gen++
	if p.Vector == nil {
		if _, ok := g.vectorless[id]; ok {
			delete(g.vectorless, id)
			g.n--
		}
		return
	}
	coords := g.coordsOf(p.Vector)
	b, ok := g.lookup(coords)
	if !ok {
		return
	}
	for i := range b.entries {
		if b.entries[i].id == id {
			last := len(b.entries) - 1
			b.entries[i] = b.entries[last]
			b.entries = b.entries[:last]
			if len(b.entries) == 0 {
				g.unlinkBucket(b)
			}
			g.n--
			return
		}
	}
}

// unlinkBucket removes an emptied bucket from its hash chain.
func (g *Grid) unlinkBucket(b *gridBucket) {
	h := hashCoords(b.coords)
	cur := g.buckets[h]
	if cur == b {
		if b.next == nil {
			delete(g.buckets, h)
		} else {
			g.buckets[h] = b.next
		}
	} else {
		for ; cur != nil && cur.next != b; cur = cur.next {
		}
		if cur == nil {
			return
		}
		cur.next = b.next
	}
	b.next = nil
	g.nbuckets--
}

// NearestWithin implements SeedIndex. It probes the (2m+1)^d buckets
// with m = ceil(r/side) around the query — the 3^d neighborhood in the
// standard r == side configuration — or, when that enumeration would
// exceed the number of occupied buckets (high d, few cells), scans the
// occupied buckets directly and filters by Chebyshev bucket distance.
func (g *Grid) NearestWithin(p stream.Point, r float64, onDist func(id int64, d float64)) (int64, float64, bool) {
	if p.Vector == nil {
		// A token-set probe can only match the vectorless side set
		// (numeric seeds are at +Inf from it, as in the linear scan).
		return g.scanVectorless(p, r, onDist)
	}
	if g.nbuckets == 0 {
		return 0, 0, false
	}
	center := g.coordsOf(p.Vector)
	var bestID int64
	bestDist := math.Inf(1)
	found := false
	scan := func(b *gridBucket) {
		for i := range b.entries {
			en := &b.entries[i]
			d := distance.Euclid(en.vec, p.Vector)
			if onDist != nil {
				onDist(en.id, d)
			}
			if d <= r && (d < bestDist || (d == bestDist && en.id < bestID)) {
				bestID, bestDist, found = en.id, d, true
			}
		}
	}
	m := int64(math.Ceil(r / g.side))
	switch {
	case windowExceeds(2*m+1, len(center), g.nbuckets):
		g.forAllBuckets(func(b *gridBucket) {
			if chebyshev(b.coords, center) <= m {
				scan(b)
			}
		})
	case g.winValid && g.winGen == g.gen && g.winM == m && slices.Equal(g.winCenter, center):
		// Same bucket as the previous probe and no membership change
		// since: the cached occupied-bucket window is exact.
		for _, b := range g.winBuckets {
			scan(b)
		}
	default:
		g.winBuckets = g.winBuckets[:0]
		g.forWindowBuckets(center, m, func(b *gridBucket) {
			g.winBuckets = append(g.winBuckets, b)
			scan(b)
		})
		g.winCenter = append(g.winCenter[:0], center...)
		g.winM, g.winGen, g.winValid = m, g.gen, true
	}
	if !found {
		return 0, 0, false
	}
	return bestID, bestDist, true
}

// NearestWhere implements SeedIndex with an expanding-shell search:
// shell k holds the buckets at Chebyshev bucket distance exactly k
// from the query's bucket, and every seed in shell k is strictly
// farther than (k−1)·side, so the search can stop as soon as the
// current best distance rules the next shell out. When enumerating a
// shell would cost more than scanning the occupied buckets directly
// (sparse or high-dimensional grids), it falls back to one exact
// direct scan of the not-yet-visited buckets.
func (g *Grid) NearestWhere(p stream.Point, pred func(id int64) bool) (int64, float64, bool) {
	if p.Vector == nil {
		var bestID int64
		bestDist := math.Inf(1)
		found := false
		for id, q := range g.vectorless {
			if pred != nil && !pred(id) {
				continue
			}
			d := q.Distance(p)
			if math.IsInf(d, 1) {
				continue
			}
			if d < bestDist || (d == bestDist && id < bestID) {
				bestID, bestDist, found = id, d, true
			}
		}
		if !found {
			return 0, 0, false
		}
		return bestID, bestDist, true
	}
	if g.nbuckets == 0 {
		return 0, 0, false
	}
	center := g.coordsOf(p.Vector)
	var bestID int64
	bestDist := math.Inf(1)
	found := false
	scan := func(b *gridBucket) {
		for i := range b.entries {
			en := &b.entries[i]
			if pred != nil && !pred(en.id) {
				continue
			}
			d := distance.Euclid(en.vec, p.Vector)
			if d < bestDist || (d == bestDist && found && en.id < bestID) {
				bestID, bestDist, found = en.id, d, true
			}
		}
	}
	visited := 0
	for k := int64(0); ; k++ {
		if visited >= g.nbuckets {
			break
		}
		if found && float64(k-1)*g.side >= bestDist {
			break
		}
		if windowExceeds(2*k+1, len(center), g.nbuckets) {
			g.forAllBuckets(func(b *gridBucket) {
				if chebyshev(b.coords, center) >= k {
					scan(b)
				}
			})
			break
		}
		g.forShellBuckets(center, k, func(b *gridBucket) {
			visited++
			scan(b)
		})
	}
	if !found {
		return 0, 0, false
	}
	return bestID, bestDist, true
}

// scanVectorless answers a radius-bounded probe against the vectorless
// side set, reporting every measured distance through onDist like the
// main probe path does.
func (g *Grid) scanVectorless(p stream.Point, r float64, onDist func(id int64, d float64)) (int64, float64, bool) {
	var bestID int64
	bestDist := math.Inf(1)
	found := false
	for id, q := range g.vectorless {
		d := q.Distance(p)
		if onDist != nil {
			onDist(id, d)
		}
		if d <= r && (d < bestDist || (d == bestDist && id < bestID)) {
			bestID, bestDist, found = id, d, true
		}
	}
	if !found {
		return 0, 0, false
	}
	return bestID, bestDist, true
}

// resizeScratch returns buf resized to d elements, reallocating only
// when the capacity grew (contents are overwritten by the caller).
func resizeScratch(buf []int64, d int) []int64 {
	if cap(buf) < d {
		return make([]int64, d)
	}
	return buf[:d]
}

// forWindowBuckets invokes fn for every occupied bucket whose
// coordinates are within Chebyshev distance m of center.
func (g *Grid) forWindowBuckets(center []int64, m int64, fn func(*gridBucket)) {
	d := len(center)
	lo := resizeScratch(g.loBuf, d)
	hi := resizeScratch(g.hiBuf, d)
	g.loBuf, g.hiBuf = lo, hi
	for i := range lo {
		lo[i], hi[i] = -m, m
	}
	g.forBox(center, lo, hi, fn)
}

// forShellBuckets invokes fn for every occupied bucket at Chebyshev
// distance exactly k from center. It enumerates only the shell
// surface — for each axis a, the two faces with offset ±k on a, axes
// before a strictly inside, axes after a unrestricted — so every
// surface offset is produced exactly once and the cost is the surface
// size, not the enclosing window.
func (g *Grid) forShellBuckets(center []int64, k int64, fn func(*gridBucket)) {
	d := len(center)
	if k == 0 || d == 0 {
		if k == 0 {
			if b, ok := g.lookup(center); ok {
				fn(b)
			}
		}
		return
	}
	lo := resizeScratch(g.loBuf, d)
	hi := resizeScratch(g.hiBuf, d)
	g.loBuf, g.hiBuf = lo, hi
	for a := 0; a < d; a++ {
		for _, s := range [2]int64{-k, k} {
			for j := 0; j < d; j++ {
				switch {
				case j == a:
					lo[j], hi[j] = s, s
				case j < a:
					lo[j], hi[j] = -(k - 1), k-1
				default:
					lo[j], hi[j] = -k, k
				}
			}
			g.forBox(center, lo, hi, fn)
		}
	}
}

// forBox invokes fn for every occupied bucket whose offset from center
// lies in the axis-aligned box [lo, hi] (per-axis inclusive bounds).
func (g *Grid) forBox(center, lo, hi []int64, fn func(*gridBucket)) {
	d := len(center)
	off := resizeScratch(g.offBuf, d)
	coords := resizeScratch(g.coordBuf, d)
	g.offBuf, g.coordBuf = off, coords
	for i := range off {
		if lo[i] > hi[i] {
			return
		}
		off[i] = lo[i]
	}
	for {
		for i := range coords {
			coords[i] = center[i] + off[i]
		}
		if b, ok := g.lookup(coords); ok {
			fn(b)
		}
		i := 0
		for ; i < d; i++ {
			off[i]++
			if off[i] <= hi[i] {
				break
			}
			off[i] = lo[i]
		}
		if i == d {
			return
		}
	}
}

// chebyshev returns the L∞ distance between two bucket coordinates.
func chebyshev(a, b []int64) int64 {
	var max int64
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// windowExceeds reports whether width^d > cap, without overflowing.
func windowExceeds(width int64, d, cap int) bool {
	prod := int64(1)
	for i := 0; i < d; i++ {
		prod *= width
		if prod > int64(cap) {
			return true
		}
	}
	return false
}
