package main

import (
	"reflect"
	"testing"

	"github.com/densitymountain/edmstream"
)

func TestDriftGenDeterministicPerSeed(t *testing.T) {
	a := newDriftGen(7).fill(nil, 30000)
	b := newDriftGen(7).fill(nil, 30000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different streams")
	}
	c := newDriftGen(8).fill(nil, 30000)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same stream")
	}
}

func TestDriftGenShape(t *testing.T) {
	g := newDriftGen(3)
	labels := map[int]bool{}
	noise := 0
	for i := 0; i < 200000; i++ {
		p := g.next()
		if p.ID != int64(i) || p.Time != float64(i)/driftRate || len(p.Vector) != 2 {
			t.Fatalf("point %d = %+v", i, p)
		}
		if p.Label == edmstream.NoLabel {
			if i <= driftQuiet {
				t.Fatalf("noise point %d inside the quiet start", i)
			}
			noise++
		} else {
			labels[p.Label] = true
		}
		if k := len(g.mountains); k < 1 || k > driftMaxMountains {
			t.Fatalf("%d mountains after %d points", k, i)
		}
	}
	// Events ran: labels beyond the starting five appeared.
	if len(labels) <= driftStartCount {
		t.Fatalf("only %d labels over 200k points", len(labels))
	}
	if share := float64(noise) / 200000; share < driftNoise/2 || share > driftNoise*2 {
		t.Fatalf("noise share %.4f, want about %.2f", share, driftNoise)
	}
}

func TestDriftGenFreshVectors(t *testing.T) {
	pts := newDriftGen(1).fill(nil, 2)
	pts[0].Vector[0] = -1
	if pts[1].Vector[0] == -1 {
		t.Fatal("points share vector storage")
	}
}
