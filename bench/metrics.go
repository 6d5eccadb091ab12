package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"secureloop/internal/num"
)

// metric is one named measurement of one run.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`              // samples behind the value
	Base  string  `json:"base,omitempty"` // a ratio's denominator
}

// benchSpec is the part of BENCHMARK.json the driver reads: the run length
// and the metrics, with the bound by which each end-to-end metric may
// worsen.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// percentile is the p-quantile of xs, interpolated linearly between the
// two nearest ranks (0 for no samples). On the closed loops' few dozen
// samples a nearest-rank quantile jumps whenever two neighbours swap
// places; the interpolated one moves only as far as they do.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (h-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles follows Python's statistics.quantiles(xs, n=4) (the exclusive
// method), the spread rule BENCHMARK.json's bounds are checked with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		im := num.MulInt(i, len(s)+1)
		j := min(max(im/4, 1), len(s)-1)
		delta := im - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func ratio(name string, num, den int64, base string) metric {
	v := 0.0
	if den > 0 {
		v = float64(num) / float64(den)
	}
	return metric{Name: name, Unit: "ratio", Value: v, N: int(den), Base: fmt.Sprintf("%s=%d", base, den)}
}

func count(name string, v int64) metric {
	return metric{Name: name, Unit: "count", Value: float64(v), N: 1}
}

// windowS is the length of the windows an open loop's p50 and p90 are
// taken over. The median over windows of each window's percentile leaves
// out the few windows in which the shared host stalled the daemon or the
// generator; such stalls moved whole-run percentiles by half, run to run.
const windowS = 2.0

// windowed is the median over windows of each window's p-quantile, a
// window being perWindow consecutive requests (0: the whole run).
func windowed(lat []sample, perWindow int, p float64) float64 {
	var windows [][]float64
	for _, s := range lat {
		k := 0
		if perWindow > 0 {
			k = s.req / perWindow
		}
		for len(windows) <= k {
			windows = append(windows, nil)
		}
		windows[k] = append(windows[k], s.ms)
	}
	var qs []float64
	for _, w := range windows {
		if len(w) > 0 {
			qs = append(qs, percentile(w, p))
		}
	}
	return median(qs)
}

// endToEnd derives the metrics a daemon user sees from one measured phase.
// p99 is taken over the whole run: a window holds too few samples for it.
func endToEnd(r *runResult) []metric {
	n := len(r.lat)
	return []metric{
		{Name: "lat_p50_ms", Unit: "ms", Value: windowed(r.lat, r.perWindow, 0.50), N: n},
		{Name: "lat_p90_ms", Unit: "ms", Value: windowed(r.lat, r.perWindow, 0.90), N: n},
		{Name: "lat_p99_ms", Unit: "ms", Value: windowed(r.lat, 0, 0.99), N: n},
		{Name: "ops_per_s", Unit: "1/s", Value: r.ops, N: n},
		{Name: "setup_s", Unit: "s", Value: median(r.setup), N: len(r.setup)},
		{Name: "rss_mb", Unit: "MiB", Value: r.rss, N: 1},
	}
}

// layerCounters diffs /v1/stats across the measured phase into the
// per-layer work counts and cache ratios.
func layerCounters(r *runResult) []metric {
	a, b := r.after, r.before
	ms, mt, mw := a.MapperSearch, a.MapperTile, a.MapperWarm
	ms.Hits, ms.Misses, ms.Shared = ms.Hits-b.MapperSearch.Hits, ms.Misses-b.MapperSearch.Misses, ms.Shared-b.MapperSearch.Shared
	mt.Hits, mt.Misses = mt.Hits-b.MapperTile.Hits, mt.Misses-b.MapperTile.Misses
	mw.Hits, mw.Misses = mw.Hits-b.MapperWarm.Hits, mw.Misses-b.MapperWarm.Misses
	ao, ad := a.AuthOptimal, a.AuthDecomp
	ao.Hits, ao.Misses, ao.Runs = ao.Hits-b.AuthOptimal.Hits, ao.Misses-b.AuthOptimal.Misses, ao.Runs-b.AuthOptimal.Runs
	ad.Hits, ad.Misses = ad.Hits-b.AuthDecomp.Hits, ad.Misses-b.AuthDecomp.Misses
	sp := a.SweepPrune
	sp.Bounded, sp.Pruned, sp.FullEvals = sp.Bounded-b.SweepPrune.Bounded, sp.Pruned-b.SweepPrune.Pruned, sp.FullEvals-b.SweepPrune.FullEvals
	st := a.Store
	st.Hits, st.Misses, st.Puts = st.Hits-b.Store.Hits, st.Misses-b.Store.Misses, st.Puts-b.Store.Puts
	coalesced := a.Service.Coalesced - b.Service.Coalesced
	return []metric{
		count("service.admitted", a.Service.Admitted-b.Service.Admitted),
		count("service.coalesced", coalesced),
		count("service.store_hits", a.Service.StoreHits-b.Service.StoreHits),
		ratio("service.coalesce_ratio", coalesced, int64(r.sent), "sent"),
		count("mapper.searches", ms.Misses),
		ratio("mapper.search_hit_ratio", ms.Hits, ms.Hits+ms.Misses, "lookups"),
		count("mapper.shared", ms.Shared),
		ratio("mapper.tile_hit_ratio", mt.Hits, mt.Hits+mt.Misses, "lookups"),
		ratio("mapper.warm_hit_ratio", mw.Hits, mw.Hits+mw.Misses, "lookups"),
		count("mapper.guided_evaluated", a.Guided.Evaluated-b.Guided.Evaluated),
		count("mapper.guided_pruned", a.Guided.Pruned-b.Guided.Pruned),
		count("authblock.optimal_runs", ao.Runs),
		ratio("authblock.optimal_hit_ratio", ao.Hits, ao.Hits+ao.Misses, "lookups"),
		ratio("authblock.decomp_hit_ratio", ad.Hits, ad.Hits+ad.Misses, "lookups"),
		count("dse.bounded", sp.Bounded),
		count("dse.pruned", sp.Pruned),
		count("dse.full_evals", sp.FullEvals),
		ratio("dse.prune_ratio", sp.Pruned, sp.Bounded, "bounded"),
		count("store.hits", st.Hits),
		count("store.misses", st.Misses),
		count("store.puts", st.Puts),
		ratio("store.hit_ratio", st.Hits, st.Hits+st.Misses, "gets"),
		{Name: "store.bytes", Unit: "B", Value: float64(st.Bytes), N: 1},
		{Name: "driver.lag_p99_ms", Unit: "ms", Value: percentile(r.lag, 0.99), N: len(r.lag)},
	}
}
