package main

import (
	"math"
	"math/rand"

	"github.com/densitymountain/edmstream"
)

// The drifting-mountain stream: a few 2-D Gaussian clusters whose
// centres move by a random walk of their velocity, steering away from
// each other when they come closer than driftSpacing. Every
// driftEventEvery points the schedule makes one of them split in two,
// start moving toward another until they meet and merge, appear, or
// vanish, in that order. A share of uniform noise is mixed in. Every cluster point
// carries its mountain's label as ground truth; noise points carry
// NoLabel. The live population stays between driftMinMountains and
// driftMaxMountains, so the number of live cells stays flat while
// cells are created and deleted all the time. The starting mountains
// sit driftSpacing apart on a ring, so for every seed the engine's
// initial decision graph has one clear gap between cell and peak
// distances (and picks a tau that separates them); later mountains
// appear at least driftSpacing from the others.
const (
	driftArea         = 100.0
	driftTick         = 100 // points between centre moves
	driftEventEvery   = 10000
	driftMinMountains = 3
	driftMaxMountains = 7
	driftStartCount   = 5
	driftNoise        = 0.02
	// driftQuiet is how many points the stream runs without noise at
	// its start. The engine picks tau once, from the decision graph of
	// its first 500 points, with a largest-gap heuristic; noise cells
	// in that window can open a wider gap than the one between cell
	// and peak distances, and the tau picked then merges the starting
	// mountains. The quiet start keeps that one-shot pick the same for
	// every seed, so purity measures how the clustering follows the
	// drift (README.md reports the fragility itself).
	driftQuiet    = 1000
	driftMaxSpeed = 0.3 // distance per tick
	driftMeetDist = 1.0
	driftSpacing  = 30.0 // distance mountains keep unless meeting
	// driftRate is the stream clock: point i arrives at i/driftRate
	// seconds, the engine's default expected rate.
	driftRate = 1000.0
	// driftRadius is the engine cell radius used for this stream.
	driftRadius = 1.0
)

type mountain struct {
	label  int
	x, y   float64
	vx, vy float64
	sigma  float64
	weight float64
	// target >= 0 is the label of the mountain this one is moving to
	// meet; -1 when it wanders freely.
	target int
}

// driftGen produces the drifting-mountain stream point by point. The
// same seed always yields the same points.
type driftGen struct {
	rng       *rand.Rand
	mountains []*mountain
	nextLabel int
	n         int64
}

func newDriftGen(seed int64) *driftGen {
	g := &driftGen{rng: rand.New(rand.NewSource(seed))}
	ring := driftSpacing / (2 * math.Sin(math.Pi/driftStartCount))
	turn := g.rng.Float64() * 2 * math.Pi
	for i := 0; i < driftStartCount; i++ {
		a := turn + 2*math.Pi*float64(i)/driftStartCount
		g.add(driftArea/2+ring*math.Cos(a), driftArea/2+ring*math.Sin(a))
	}
	return g
}

// appear adds a mountain at a random place at least driftSpacing from
// the others (the best of a few tries when the area is crowded).
func (g *driftGen) appear() {
	r := g.rng
	var x, y, best float64
	for try := 0; try < 20 && best < driftSpacing; try++ {
		cx, cy := 10+r.Float64()*(driftArea-20), 10+r.Float64()*(driftArea-20)
		near := math.Inf(1)
		for _, m := range g.mountains {
			near = math.Min(near, math.Hypot(m.x-cx, m.y-cy))
		}
		if near > best {
			x, y, best = cx, cy, near
		}
	}
	g.add(x, y)
}

func (g *driftGen) add(x, y float64) {
	r := g.rng
	g.mountains = append(g.mountains, &mountain{
		label:  g.nextLabel,
		x:      x,
		y:      y,
		vx:     (r.Float64()*2 - 1) * driftMaxSpeed,
		vy:     (r.Float64()*2 - 1) * driftMaxSpeed,
		sigma:  1.0 + r.Float64(),
		weight: 1 + r.Float64(),
		target: -1,
	})
	g.nextLabel++
}

func (g *driftGen) find(label int) *mountain {
	for _, m := range g.mountains {
		if m.label == label {
			return m
		}
	}
	return nil
}

func (g *driftGen) remove(i int) {
	gone := g.mountains[i].label
	g.mountains = append(g.mountains[:i], g.mountains[i+1:]...)
	for _, m := range g.mountains {
		if m.target == gone {
			m.target = -1
		}
	}
}

// event applies the next structural change of the schedule, which
// cycles split, meet, appear, vanish (each when the population allows
// it); which mountains and where are seeded choices. A fixed cycle
// keeps every seed's stream equally eventful.
func (g *driftGen) event() {
	r := g.rng
	k := len(g.mountains)
	switch (g.n/driftEventEvery - 1) % 4 {
	case 0:
		if k < driftMaxMountains {
			m := g.mountains[r.Intn(k)]
			child := *m
			child.label = g.nextLabel
			g.nextLabel++
			child.vx, child.vy = -m.vx, -m.vy
			child.target, m.target = -1, -1
			child.weight = m.weight / 2
			m.weight /= 2
			g.mountains = append(g.mountains, &child)
		}
	case 1:
		if k > driftMinMountains {
			a := r.Intn(k)
			b := (a + 1 + r.Intn(k-1)) % k
			g.mountains[a].target = g.mountains[b].label
		}
	case 2:
		if k < driftMaxMountains {
			g.appear()
		}
	case 3:
		if k > driftMinMountains {
			g.remove(r.Intn(k))
		}
	}
	// Merges happen between events and can leave too few mountains.
	for len(g.mountains) < driftMinMountains {
		g.appear()
	}
}

// move advances every centre by one tick.
func (g *driftGen) move() {
	r := g.rng
	for _, m := range g.mountains {
		if t := g.find(m.target); t != nil {
			dx, dy := t.x-m.x, t.y-m.y
			if d := math.Hypot(dx, dy); d > 0 {
				m.vx, m.vy = dx/d*driftMaxSpeed, dy/d*driftMaxSpeed
			}
		} else {
			ax, ay := r.NormFloat64()*0.05, r.NormFloat64()*0.05
			for _, o := range g.mountains {
				if o == m || o.target == m.label {
					continue
				}
				// Steer away from a neighbour closer than the spacing.
				dx, dy := m.x-o.x, m.y-o.y
				if d := math.Hypot(dx, dy); d > 0 && d < driftSpacing {
					ax += dx / d * 0.05
					ay += dy / d * 0.05
				}
			}
			m.vx = clamp(m.vx+ax, -driftMaxSpeed, driftMaxSpeed)
			m.vy = clamp(m.vy+ay, -driftMaxSpeed, driftMaxSpeed)
		}
		m.x, m.vx = bounce(m.x+m.vx, m.vx)
		m.y, m.vy = bounce(m.y+m.vy, m.vy)
	}
	// Mountains that reached their target merge into it.
	for i := 0; i < len(g.mountains); i++ {
		m := g.mountains[i]
		t := g.find(m.target)
		if t != nil && math.Hypot(t.x-m.x, t.y-m.y) < driftMeetDist {
			t.weight += m.weight
			g.remove(i)
			i--
		}
	}
}

func clamp(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }

// bounce keeps a coordinate inside the area, bouncing the velocity.
func bounce(v, vel float64) (float64, float64) {
	if v < 0 {
		return -v, -vel
	}
	if v > driftArea {
		return 2*driftArea - v, -vel
	}
	return v, vel
}

// next returns the following point with a freshly allocated vector.
func (g *driftGen) next() edmstream.Point {
	if g.n > 0 && g.n%driftEventEvery == 0 {
		g.event()
	}
	if g.n > 0 && g.n%driftTick == 0 {
		g.move()
	}
	r := g.rng
	p := edmstream.Point{ID: g.n, Time: float64(g.n) / driftRate, Label: edmstream.NoLabel}
	g.n++
	if g.n > driftQuiet && r.Float64() < driftNoise {
		p.Vector = []float64{r.Float64() * driftArea, r.Float64() * driftArea}
		return p
	}
	total := 0.0
	for _, m := range g.mountains {
		total += m.weight
	}
	pick := r.Float64() * total
	m := g.mountains[len(g.mountains)-1]
	for _, c := range g.mountains {
		if pick < c.weight {
			m = c
			break
		}
		pick -= c.weight
	}
	p.Vector = []float64{m.x + r.NormFloat64()*m.sigma, m.y + r.NormFloat64()*m.sigma}
	p.Label = m.label
	return p
}

// episodeSeed is the stream seed of episode ep of a run seeded with
// seed whose episodes cycle over streams streams: runs with different
// seeds share no stream.
func episodeSeed(seed int64, ep, streams int) int64 {
	return seed*int64(streams) + int64(ep%streams)
}

// fill appends n points to dst.
func (g *driftGen) fill(dst []edmstream.Point, n int) []edmstream.Point {
	for i := 0; i < n; i++ {
		dst = append(dst, g.next())
	}
	return dst
}
