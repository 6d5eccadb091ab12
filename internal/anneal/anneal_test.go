package anneal

import (
	"context"
	"math"
	"testing"
)

// minimize is MinimizeCtx with a background context, failing the test on
// error.
func minimize(t testing.TB, p Problem, opts Options) Result {
	t.Helper()
	res, err := MinimizeCtx(context.Background(), p, opts, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// quadProblem: cost is sum of squared distances from a hidden target.
type quadProblem struct {
	target []int
	k      int
	calls  int
}

func (p *quadProblem) NumLayers() int       { return len(p.target) }
func (p *quadProblem) NumChoices(i int) int { return p.k }
func (p *quadProblem) Cost(c []int) float64 {
	p.calls++
	var s float64
	for i, v := range c {
		d := float64(v - p.target[i])
		s += d * d
	}
	return s + 1 // keep positive
}

func TestMinimizeFindsTarget(t *testing.T) {
	p := &quadProblem{target: []int{3, 1, 4, 1, 5, 2, 0, 3}, k: 6}
	res := minimize(t, p, Options{Iterations: 5000, TInit: 0.5, TFinal: 1e-4, Seed: 42})
	if res.Cost > res.InitialCost {
		t.Fatalf("annealing worsened: %g > %g", res.Cost, res.InitialCost)
	}
	if math.Abs(res.Cost-1) > 1e-9 {
		t.Errorf("did not find the optimum: cost %g, choices %v", res.Cost, res.Choices)
	}
}

func TestMinimizeDeterministicPerSeed(t *testing.T) {
	mk := func(seed int64) Result {
		p := &quadProblem{target: []int{2, 4, 1, 3}, k: 5}
		return minimize(t, p, Options{Iterations: 300, TInit: 0.3, TFinal: 1e-3, Seed: seed})
	}
	a, b := mk(7), mk(7)
	if a.Cost != b.Cost || a.Accepted != b.Accepted {
		t.Error("same seed produced different runs")
	}
	for i := range a.Choices {
		if a.Choices[i] != b.Choices[i] {
			t.Error("same seed produced different choices")
		}
	}
}

func TestMinimizeNeverReturnsWorseThanInitial(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := &quadProblem{target: []int{0, 0, 0}, k: 4}
		res := minimize(t, p, Options{Iterations: 50, TInit: 5, TFinal: 1, Seed: seed})
		if res.Cost > res.InitialCost {
			t.Fatalf("seed %d: best cost %g exceeds initial %g", seed, res.Cost, res.InitialCost)
		}
	}
}

func TestMinimizeSingleChoiceNoop(t *testing.T) {
	p := &quadProblem{target: []int{0, 0}, k: 1}
	res := minimize(t, p, Options{Iterations: 100, TInit: 1, TFinal: 0.1, Seed: 1})
	if res.Accepted != 0 {
		t.Error("accepted moves with no alternatives")
	}
	if p.calls != 1 {
		t.Errorf("evaluated cost %d times, want 1", p.calls)
	}
}

func TestMinimizeZeroIterations(t *testing.T) {
	p := &quadProblem{target: []int{1}, k: 3}
	res := minimize(t, p, Options{Iterations: 0, Seed: 1})
	if res.Cost != res.InitialCost {
		t.Error("zero iterations changed the state")
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.Iterations != 1000 {
		t.Errorf("default iterations = %d, want the paper's 1000", o.Iterations)
	}
	if o.TInit <= o.TFinal {
		t.Error("temperature schedule inverted")
	}
}

// incQuadProblem adds the Incremental fast path to quadProblem.
type incQuadProblem struct {
	quadProblem
	deltaCalls int
}

func (p *incQuadProblem) DeltaCost(c []int, i, next int) float64 {
	p.deltaCalls++
	var s float64
	for j, v := range c {
		if j == i {
			v = next
		}
		d := float64(v - p.target[j])
		s += d * d
	}
	return s + 1
}

// hideIncremental wraps an Incremental problem so MinimizeCtx only sees the
// base interface (forcing the full-recomputation path).
type hideIncremental struct{ p Problem }

func (h hideIncremental) NumLayers() int       { return h.p.NumLayers() }
func (h hideIncremental) NumChoices(i int) int { return h.p.NumChoices(i) }
func (h hideIncremental) Cost(c []int) float64 { return h.p.Cost(c) }

// TestIncrementalMatchesFullRecomputation: the DeltaCost fast path must
// reproduce the full-Cost annealing trajectory exactly — same best state,
// same cost, same acceptance count.
func TestIncrementalMatchesFullRecomputation(t *testing.T) {
	opts := Options{Iterations: 800, TInit: 0.4, TFinal: 1e-3, Seed: 11}
	full := &incQuadProblem{quadProblem: quadProblem{target: []int{3, 1, 4, 1, 5}, k: 6}}
	fullRes := minimize(t, hideIncremental{full}, opts)
	fast := &incQuadProblem{quadProblem: quadProblem{target: []int{3, 1, 4, 1, 5}, k: 6}}
	fastRes := minimize(t, fast, opts)
	if fastRes.Cost != fullRes.Cost || fastRes.Accepted != fullRes.Accepted {
		t.Fatalf("incremental diverged: %+v vs %+v", fastRes, fullRes)
	}
	for i := range fastRes.Choices {
		if fastRes.Choices[i] != fullRes.Choices[i] {
			t.Fatalf("choices diverged: %v vs %v", fastRes.Choices, fullRes.Choices)
		}
	}
	if fast.deltaCalls != opts.Iterations {
		t.Errorf("DeltaCost called %d times, want %d", fast.deltaCalls, opts.Iterations)
	}
	// The fast path evaluates the full cost only once (the initial state).
	if fast.calls != 1 {
		t.Errorf("incremental path called Cost %d times, want 1", fast.calls)
	}
}

// TestEveryIterationProposesARealMove: sampling is over the other
// NumChoices-1 candidates, so no iteration is burned proposing the current
// choice — the full-path Cost is evaluated exactly once per iteration.
func TestEveryIterationProposesARealMove(t *testing.T) {
	p := &quadProblem{target: []int{1, 1}, k: 2}
	opts := Options{Iterations: 200, TInit: 0.5, TFinal: 1e-3, Seed: 5}
	minimize(t, p, opts)
	if want := opts.Iterations + 1; p.calls != want {
		t.Errorf("Cost called %d times, want %d (one per iteration plus the initial state)",
			p.calls, want)
	}
}

// TestHigherTemperatureExploresMore: with a very high temperature nearly
// all moves are accepted; with near-zero temperature only improvements are.
func TestTemperatureControlsAcceptance(t *testing.T) {
	hot := &quadProblem{target: []int{9, 9, 9, 9}, k: 10}
	hotRes := minimize(t, hot, Options{Iterations: 500, TInit: 1e6, TFinal: 1e6, Seed: 3})
	cold := &quadProblem{target: []int{9, 9, 9, 9}, k: 10}
	coldRes := minimize(t, cold, Options{Iterations: 500, TInit: 1e-9, TFinal: 1e-12, Seed: 3})
	if hotRes.Accepted <= coldRes.Accepted {
		t.Errorf("hot accepted %d <= cold accepted %d", hotRes.Accepted, coldRes.Accepted)
	}
}
