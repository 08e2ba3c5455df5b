package index

import (
	"math"

	"github.com/densitymountain/edmstream/internal/stream"
)

// Linear is the scan-everything SeedIndex. It supports every point
// type the stream package knows (numeric vectors and token sets) and
// is the fallback for streams the grid cannot bucket. Insertion order
// is preserved (with swap-removal), matching the cache-friendly slice
// scan the core algorithm used before the index abstraction existed.
type Linear struct {
	entries []linearEntry
	pos     map[int64]int
}

type linearEntry struct {
	id int64
	pt stream.Point
}

// NewLinear creates an empty linear index.
func NewLinear() *Linear {
	return &Linear{pos: make(map[int64]int)}
}

// Len implements SeedIndex.
func (l *Linear) Len() int { return len(l.entries) }

// Kind implements SeedIndex.
func (l *Linear) Kind() string { return "linear" }

// Insert implements SeedIndex.
func (l *Linear) Insert(id int64, p stream.Point) {
	l.pos[id] = len(l.entries)
	l.entries = append(l.entries, linearEntry{id: id, pt: p})
}

// Remove implements SeedIndex (O(1) swap-remove).
func (l *Linear) Remove(id int64, _ stream.Point) {
	i, ok := l.pos[id]
	if !ok {
		return
	}
	last := len(l.entries) - 1
	l.entries[i] = l.entries[last]
	l.pos[l.entries[i].id] = i
	l.entries = l.entries[:last]
	delete(l.pos, id)
}

// NearestWithin implements SeedIndex by scanning every entry.
func (l *Linear) NearestWithin(p stream.Point, r float64, onDist func(id int64, d float64)) (int64, float64, bool) {
	var bestID int64
	bestDist := math.Inf(1)
	found := false
	for i := range l.entries {
		en := &l.entries[i]
		d := en.pt.Distance(p)
		if onDist != nil {
			onDist(en.id, d)
		}
		if d <= r && (d < bestDist || (d == bestDist && en.id < bestID)) {
			bestID, bestDist, found = en.id, d, true
		}
	}
	if !found {
		return 0, 0, false
	}
	return bestID, bestDist, true
}

// NearestWhere implements SeedIndex by scanning every entry.
func (l *Linear) NearestWhere(p stream.Point, pred func(id int64) bool) (int64, float64, bool) {
	var bestID int64
	bestDist := math.Inf(1)
	found := false
	for i := range l.entries {
		en := &l.entries[i]
		if pred != nil && !pred(en.id) {
			continue
		}
		d := en.pt.Distance(p)
		if math.IsInf(d, 1) {
			// Incomparable point types (numeric vs text) can never be
			// a nearest neighbor; mirroring the pre-index behavior,
			// they are not reported even when nothing else matches.
			continue
		}
		if d < bestDist || (d == bestDist && en.id < bestID) {
			bestID, bestDist, found = en.id, d, true
		}
	}
	if !found {
		return 0, 0, false
	}
	return bestID, bestDist, true
}
