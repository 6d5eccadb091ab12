package dse

import (
	"math/rand"
	"reflect"
	"testing"
)

// pts builds design points from (area, cycles) pairs.
func pts(pairs ...[2]int64) []DesignPoint {
	out := make([]DesignPoint, len(pairs))
	for i, p := range pairs {
		out[i] = DesignPoint{AreaMM2: float64(p[0]), Cycles: p[1]}
	}
	return out
}

func paretoFlags(points []DesignPoint) []bool {
	out := make([]bool, len(points))
	for i, p := range points {
		out[i] = p.Pareto
	}
	return out
}

// markParetoNaive is the O(n^2) dominance reference: p is on the front iff
// no q has area <= and cycles <= with at least one strict.
func markParetoNaive(points []DesignPoint) {
	for i := range points {
		dominated := false
		for j := range points {
			if i == j {
				continue
			}
			q, p := points[j], points[i]
			if q.AreaMM2 <= p.AreaMM2 && q.Cycles <= p.Cycles &&
				(q.AreaMM2 < p.AreaMM2 || q.Cycles < p.Cycles) {
				dominated = true
				break
			}
		}
		points[i].Pareto = !dominated
	}
}

func TestMarkParetoEmpty(t *testing.T) {
	MarkPareto(nil)
	MarkPareto([]DesignPoint{})
	if got := ParetoFront(nil); len(got) != 0 {
		t.Fatalf("front of empty input: %v", got)
	}
}

func TestMarkParetoSinglePoint(t *testing.T) {
	p := pts([2]int64{5, 100})
	MarkPareto(p)
	if !p[0].Pareto {
		t.Fatal("a lone point must be on the front")
	}
}

// TestMarkParetoExactTies: points tied in both coordinates do not dominate
// each other, so every copy is marked — and the marking must not depend on
// which copy the sort visits first.
func TestMarkParetoExactTies(t *testing.T) {
	p := pts([2]int64{5, 100}, [2]int64{5, 100}, [2]int64{5, 100}, [2]int64{7, 50})
	MarkPareto(p)
	want := []bool{true, true, true, true}
	if got := paretoFlags(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("flags %v, want %v", got, want)
	}
	// A same-area cheaper point dominates all three ties strictly.
	p = append(p, DesignPoint{AreaMM2: 5, Cycles: 99})
	MarkPareto(p)
	want = []bool{false, false, false, true, true}
	if got := paretoFlags(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("flags %v, want %v", got, want)
	}
	front := ParetoFront(p)
	if len(front) != 2 {
		t.Fatalf("front size %d, want 2", len(front))
	}
}

func TestMarkParetoAllDominated(t *testing.T) {
	p := pts([2]int64{1, 10}, [2]int64{2, 11}, [2]int64{3, 12}, [2]int64{4, 10})
	MarkPareto(p)
	want := []bool{true, false, false, false}
	if got := paretoFlags(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("flags %v, want %v", got, want)
	}
}

// TestMarkParetoMatchesNaive is the property test: on random point sets —
// with deliberately heavy area and cycle collisions so ties are common —
// the staircase marking must agree with the O(n^2) dominance definition,
// and must be invariant under input order.
func TestMarkParetoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9)) // fixed seed: reproducible failures
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		points := make([]DesignPoint, n)
		for i := range points {
			points[i] = DesignPoint{
				AreaMM2: float64(1 + rng.Intn(8)),
				Cycles:  int64(1 + rng.Intn(8)),
			}
		}
		got := append([]DesignPoint(nil), points...)
		MarkPareto(got)
		want := append([]DesignPoint(nil), points...)
		markParetoNaive(want)
		if !reflect.DeepEqual(paretoFlags(got), paretoFlags(want)) {
			t.Fatalf("trial %d: staircase %v != naive %v on %v",
				trial, paretoFlags(got), paretoFlags(want), points)
		}
		// Shuffle and re-mark: flags must follow the points, not the order.
		perm := rng.Perm(n)
		shuffled := make([]DesignPoint, n)
		for i, j := range perm {
			shuffled[i] = points[j]
		}
		MarkPareto(shuffled)
		for i, j := range perm {
			if shuffled[i].Pareto != got[j].Pareto {
				t.Fatalf("trial %d: marking depends on input order", trial)
			}
		}
	}
}

// TestPruneTrackerVerdicts unit-tests the streaming front's staircase and
// its three dispositions.
func TestPruneTrackerVerdicts(t *testing.T) {
	var tr frontTracker
	if v := tr.check(5, 100); v != boundEvaluate {
		t.Fatalf("empty front must evaluate, got %v", v)
	}
	tr.add(5, 100)
	cases := []struct {
		name string
		area float64
		lb   int64
		want boundVerdict
	}{
		{"smaller area always evaluates", 4, 1000, boundEvaluate},
		{"bound below the stair evaluates", 6, 99, boundEvaluate},
		{"strictly dominated prunes", 6, 100, boundPrune},
		{"worse both ways prunes", 6, 101, boundPrune},
		{"full tie defers", 5, 100, boundDefer},
		{"equal area, worse cycles prunes", 5, 101, boundPrune},
	}
	for _, c := range cases {
		if got := tr.check(c.area, c.lb); got != c.want {
			t.Errorf("%s: check(%g, %d) = %v, want %v", c.name, c.area, c.lb, got, c.want)
		}
	}
}

// TestPruneTrackerStaircase pins the staircase maintenance: weakly
// dominated insertions are dropped, dominating insertions evict, equal-area
// improvements replace.
func TestPruneTrackerStaircase(t *testing.T) {
	var tr frontTracker
	tr.add(5, 100)
	tr.add(10, 50)
	tr.add(7, 120) // weakly dominated by (5,100): dropped
	if got := tr.snapshot(); !reflect.DeepEqual(got, []frontPoint{{5, 100}, {10, 50}}) {
		t.Fatalf("stair %v", got)
	}
	tr.add(5, 80) // equal-area improvement: replaces (5,100)
	if got := tr.snapshot(); !reflect.DeepEqual(got, []frontPoint{{5, 80}, {10, 50}}) {
		t.Fatalf("stair %v", got)
	}
	tr.add(4, 40) // dominates everything: stair collapses to it
	if got := tr.snapshot(); !reflect.DeepEqual(got, []frontPoint{{4, 40}}) {
		t.Fatalf("stair %v", got)
	}
	tr.add(6, 30)
	tr.add(8, 20)
	tr.add(5, 25) // evicts (6,30) and (8,20)? no — only entries with cycles >= 25 to its right
	if got := tr.snapshot(); !reflect.DeepEqual(got, []frontPoint{{4, 40}, {5, 25}, {8, 20}}) {
		t.Fatalf("stair %v", got)
	}
}

// snapshot returns a copy of the staircase.
func (t *frontTracker) snapshot() []frontPoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]frontPoint(nil), t.stair...)
}
