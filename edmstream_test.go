package edmstream

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestPublicQuickstartFlow(t *testing.T) {
	c, err := New(Options{Radius: 0.8, Tau: 3, InitPoints: 200})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	centers := [][]float64{{0, 0}, {10, 10}}
	for i := 0; i < 4000; i++ {
		k := i % 2
		p := NewLabeledPoint(
			[]float64{centers[k][0] + rng.NormFloat64()*0.5, centers[k][1] + rng.NormFloat64()*0.5},
			float64(i)/1000, k)
		if err := c.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Snapshot()
	if snap.NumClusters() != 2 {
		t.Fatalf("got %d clusters, want 2", snap.NumClusters())
	}
	if c.Now() < 3.9 {
		t.Errorf("Now = %v", c.Now())
	}
	if c.Tau() != 3 {
		t.Errorf("Tau = %v, want the static 3", c.Tau())
	}
	if len(c.DecisionGraph()) == 0 {
		t.Error("empty decision graph")
	}
	if c.Stats().Points != 4000 {
		t.Errorf("Stats.Points = %d", c.Stats().Points)
	}
	if c.ReservoirBound() <= 0 {
		t.Error("ReservoirBound should be positive")
	}
	if got := c.LastSnapshot().NumClusters(); got != snap.NumClusters() {
		t.Errorf("LastSnapshot clusters = %d, want %d", got, snap.NumClusters())
	}
	if len(c.Events()) == 0 {
		t.Error("no evolution events recorded")
	}
	if !(c.Alpha() >= 0 && c.Alpha() < 1) {
		t.Errorf("Alpha = %v", c.Alpha())
	}
}

// TestPublicServing exercises the read path of the public API: Assign
// and AssignBatch classify points against the published snapshot, and
// the reader-safe methods can be hammered from several goroutines
// while a writer ingests (run under -race by the CI race job).
func TestPublicServing(t *testing.T) {
	c, err := New(Options{Radius: 0.8, Tau: 3, InitPoints: 200})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	centers := [][]float64{{0, 0}, {10, 10}}
	mk := func(i int) Point {
		k := i % 2
		return NewPoint([]float64{
			centers[k][0] + rng.NormFloat64()*0.5,
			centers[k][1] + rng.NormFloat64()*0.5,
		}, float64(i)/1000)
	}
	// Before any snapshot is published, Assign reports no cluster.
	if _, ok := c.Assign(NewPoint([]float64{0, 0}, 0)); ok {
		t.Error("Assign matched before any snapshot was published")
	}

	var pts []Point
	for i := 0; i < 4000; i++ {
		pts = append(pts, mk(i))
	}
	const split = 2000
	if err := c.InsertBatch(pts[:split]); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if snap.NumClusters() != 2 {
		t.Fatalf("got %d clusters, want 2", snap.NumClusters())
	}

	// Readers hammer the serving methods while the writer finishes the
	// stream.
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var dst []int
			for i := 0; ; i++ {
				if i >= 200 {
					select {
					case <-done:
						return
					default:
					}
				}
				c.Assign(pts[(r*31+i)%split])
				dst = c.AssignBatch(pts[:4], dst)
				_ = c.LastSnapshot()
				_ = c.Stats()
				_ = c.Events()
			}
		}(r)
	}
	if err := c.InsertBatch(pts[split:]); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	// On-cluster points resolve to the cluster of their center; a far
	// point is an outlier.
	snap = c.Snapshot()
	wantA, okA := c.Assign(NewPoint(centers[0], c.Now()))
	wantB, okB := c.Assign(NewPoint(centers[1], c.Now()))
	if !okA || !okB || wantA == wantB {
		t.Fatalf("center assignment broken: (%d,%v) (%d,%v)", wantA, okA, wantB, okB)
	}
	if _, ok := snap.Cluster(wantA); !ok {
		t.Errorf("Assign returned cluster %d not present in the snapshot", wantA)
	}
	if _, ok := c.Assign(NewPoint([]float64{500, 500}, c.Now())); ok {
		t.Error("far-away point was assigned")
	}
	ids := c.AssignBatch([]Point{NewPoint(centers[0], c.Now()), NewPoint([]float64{500, 500}, c.Now())}, nil)
	if len(ids) != 2 || ids[0] != wantA || ids[1] != AssignOutlier {
		t.Errorf("AssignBatch = %v, want [%d %d]", ids, wantA, AssignOutlier)
	}
}

func TestPublicOptionsValidation(t *testing.T) {
	if err := (Options{Radius: 1}).Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	if err := (Options{}).Validate(); err == nil {
		t.Error("missing radius should be rejected")
	}
	if _, err := New(Options{Radius: -1}); err == nil {
		t.Error("negative radius accepted")
	}
	// Filter plumbing: DisableFilters produces a working clusterer.
	c, err := New(Options{Radius: 1, DisableFilters: true, Tau: 2, InitPoints: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := c.Insert(NewPoint([]float64{float64(i % 5), 0}, float64(i)/1000)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().FilteredByDensity != 0 || c.Stats().FilteredByTriangle != 0 {
		t.Error("DisableFilters did not disable the filters")
	}
	// Explicit filter selection is honored.
	c2, err := New(Options{Radius: 1, Filters: FilterDensity, Tau: 2, InitPoints: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := c2.Insert(NewPoint([]float64{float64(i % 5), 0}, float64(i)/1000)); err != nil {
			t.Fatal(err)
		}
	}
	if c2.Stats().FilteredByTriangle != 0 {
		t.Error("triangle filter fired although only the density filter was selected")
	}
	// Negative EvolutionInterval disables automatic tracking.
	if err := (Options{Radius: 1, EvolutionInterval: -1}).Validate(); err != nil {
		t.Errorf("negative EvolutionInterval should mean disabled, got error: %v", err)
	}
}

// TestPublicIngestWorkersValidation pins the deprecation contract of
// the IngestWorkers option: it is ignored, so every value — negative
// ones included — passes validation and yields the same published
// snapshot, checkpoint bytes and zero speculation counters as the
// default.
func TestPublicIngestWorkersValidation(t *testing.T) {
	tests := []struct {
		name    string
		workers int
	}{
		{"default-gomaxprocs", 0},
		{"single-threaded", 1},
		{"explicit-pool", 4},
		{"oversubscribed", 64},
		{"negative", -1},
		{"very-negative", -8},
	}
	rng := rand.New(rand.NewSource(3))
	centers := [][]float64{{0, 0}, {10, 10}, {0, 10}}
	pts := make([]Point, 3000)
	for i := range pts {
		c := centers[i%len(centers)]
		pts[i] = NewPoint([]float64{c[0] + rng.NormFloat64()*0.5, c[1] + rng.NormFloat64()*0.5}, float64(i)/1000)
	}
	// ingest feeds pts in batches of 256 and returns the published
	// snapshot and a checkpoint, both as bytes.
	ingest := func(t *testing.T, opts Options) (snap, ckpt []byte) {
		t.Helper()
		c, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(pts); i += 256 {
			if err := c.InsertBatch(pts[i:min(i+256, len(pts))]); err != nil {
				t.Fatal(err)
			}
		}
		if st := c.Stats(); st.SpeculativeRoutes != 0 || st.SpeculationMisses != 0 {
			t.Fatalf("speculation counters = %d/%d, want 0/0", st.SpeculativeRoutes, st.SpeculationMisses)
		}
		if snap, err = json.Marshal(c.LastSnapshot()); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return snap, buf.Bytes()
	}
	base := Options{Radius: 0.8, Tau: 3, InitPoints: 200}
	wantSnap, wantCkpt := ingest(t, base)
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			opts := base
			opts.IngestWorkers = tt.workers
			if err := opts.Validate(); err != nil {
				t.Fatalf("IngestWorkers=%d rejected: %v", tt.workers, err)
			}
			snap, ckpt := ingest(t, opts)
			if !bytes.Equal(snap, wantSnap) {
				t.Fatalf("IngestWorkers=%d published a different snapshot than the default", tt.workers)
			}
			if !bytes.Equal(ckpt, wantCkpt) {
				t.Fatalf("IngestWorkers=%d wrote a different checkpoint than the default", tt.workers)
			}
		})
	}
}

func TestPublicTextStream(t *testing.T) {
	c, err := New(Options{Radius: 0.4, Tau: 0.8, InitPoints: 100})
	if err != nil {
		t.Fatal(err)
	}
	vocab := [][]string{{"google", "wearable", "sdk"}, {"apple", "iphone", "patent"}}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		k := i % 2
		doc := NewTokenSet(vocab[k]...)
		doc.Add(vocab[k][rng.Intn(3)])
		if err := c.Insert(NewTextPoint(doc, float64(i)/1000)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Snapshot().NumClusters(); got != 2 {
		t.Errorf("text stream clusters = %d, want 2", got)
	}
}

func TestPublicHelpers(t *testing.T) {
	p := NewPoint([]float64{1, 2}, 0.5)
	if p.Label != NoLabel || p.Time != 0.5 {
		t.Errorf("NewPoint = %+v", p)
	}
	lp := NewLabeledPoint([]float64{1}, 1, 3)
	if lp.Label != 3 {
		t.Errorf("NewLabeledPoint label = %d", lp.Label)
	}
	tp := NewTextPoint(NewTokenSet("a", "b"), 2)
	if !tp.IsText() || tp.Tokens.Len() != 2 {
		t.Errorf("NewTextPoint = %+v", tp)
	}
	d := DefaultDecay()
	if d.A != 0.998 || d.Lambda != 1 {
		t.Errorf("DefaultDecay = %+v", d)
	}
	var pts []Point
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		pts = append(pts, NewPoint([]float64{rng.Float64(), rng.Float64()}, 0))
	}
	r, err := SuggestRadius(pts, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if r <= 0 || math.IsNaN(r) {
		t.Errorf("SuggestRadius = %v", r)
	}
	if _, err := SuggestRadius(pts[:1], 0.02); err == nil {
		t.Error("SuggestRadius with one point should error")
	}
}
