package experiments

import (
	"context"
	"fmt"

	"secureloop/internal/arch"
	"secureloop/internal/core"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/dse"
	"secureloop/internal/workload"
)

// sweepOptions are the dse.Sweep options of Figures 13–16: the
// experiment's observer, mapper and store, and a reduced annealing budget
// (the cross-layer gain is a few percent and stable, so sweeps spend their
// time on the space, not the tail of each point).
func (o Options) sweepOptions() dse.Options {
	return dse.Options{
		AnnealIterations: o.annealIters(200),
		Observe:          o.Observe,
		Mapper:           o.Mapper,
		Store:            o.Store,
	}
}

// Fig13 reproduces Figure 13: slowdown over the unsecure baseline and
// crypto area overhead for six engine configurations, per workload.
func Fig13(ctx context.Context, opts Options) (Table, error) {
	t := Table{
		Name:   "fig13",
		Title:  "slowdown and area overhead vs crypto engine configuration",
		Header: []string{"workload", "config", "slowdown", "area_overhead_pct", "crypto_kgates"},
	}
	specs := []arch.Spec{arch.Base()}
	for _, net := range workload.Networks() {
		res, err := dse.Sweep(ctx, net, specs, cryptoengine.Figure13Configs(), core.CryptOptCross, opts.sweepOptions())
		if err != nil {
			return Table{}, fmt.Errorf("fig13 %s: %w", net.Name, err)
		}
		for _, p := range res.Points {
			t.AddRow(net.Name, p.Crypto.String(), p.Slowdown(), p.CryptoAreaOverheadPct, p.Crypto.TotalAreaKGates())
		}
	}
	return t, nil
}

// Fig14 reproduces Figure 14: latency for PE arrays 14x12 / 14x24 / 28x24
// under the unsecure baseline, a pipelined AES-GCM and a parallel AES-GCM.
func Fig14(ctx context.Context, opts Options) (Table, error) {
	var specs []arch.Spec
	var labels []string
	for _, pe := range arch.PEConfigs() {
		specs = append(specs, arch.Base().WithPEs(pe[0], pe[1]))
		labels = append(labels, fmt.Sprintf("%dx%d", pe[0], pe[1]))
	}
	return latencyTable(ctx, opts, Table{
		Name:   "fig14",
		Title:  "latency (cycles) vs PE array size",
		Header: []string{"workload", "pe_array", "unsecure", "pipelined", "parallel"},
	}, specs, labels)
}

// Fig15 reproduces Figure 15: latency for global-buffer sizes 16/32/131 kB.
func Fig15(ctx context.Context, opts Options) (Table, error) {
	var specs []arch.Spec
	var labels []string
	for _, glb := range arch.BufferConfigs() {
		specs = append(specs, arch.Base().WithGlobalBuffer(glb))
		labels = append(labels, fmt.Sprintf("%dkB", glb/1024))
	}
	return latencyTable(ctx, opts, Table{
		Name:   "fig15",
		Title:  "latency (cycles) vs on-chip buffer size",
		Header: []string{"workload", "glb", "unsecure", "pipelined", "parallel"},
	}, specs, labels)
}

// latencyTable fills Figures 14 and 15: per network, one sweep over specs
// x {pipelined x1, parallel x1}, and one row per spec with its label and
// the unsecure, pipelined and parallel latencies.
func latencyTable(ctx context.Context, opts Options, t Table, specs []arch.Spec, labels []string) (Table, error) {
	cryptos := []cryptoengine.Config{
		{Engine: cryptoengine.Pipelined(), CountPerDatatype: 1},
		{Engine: cryptoengine.Parallel(), CountPerDatatype: 1},
	}
	for _, net := range workload.Networks() {
		res, err := dse.Sweep(ctx, net, specs, cryptos, core.CryptOptCross, opts.sweepOptions())
		if err != nil {
			return Table{}, fmt.Errorf("%s %s: %w", t.Name, net.Name, err)
		}
		for si, label := range labels {
			pipelined, parallel := res.Points[2*si], res.Points[2*si+1]
			t.AddRow(net.Name, label, pipelined.UnsecureCycles, pipelined.Cycles, parallel.Cycles)
		}
	}
	return t, nil
}

// DRAMStudy reproduces the Section 5.2 "Different DRAM Technologies"
// experiment on AlexNet: latency and energy under LPDDR4-64B, LPDDR4-128B
// and HBM2-64B, secure (parallel engine) and unsecure.
func DRAMStudy(ctx context.Context, opts Options) (Table, error) {
	t := Table{
		Name:   "dram",
		Title:  "DRAM technology study (AlexNet): latency and energy",
		Header: []string{"dram", "unsecure_cycles", "unsecure_uj", "secure_cycles", "secure_uj"},
	}
	net := workload.AlexNet()
	for _, tech := range arch.DRAMTechs() {
		spec := arch.Base().WithDRAM(tech)
		base, err := opts.newScheduler(spec, baseCrypto()).ScheduleNetworkCtx(ctx, net, core.Unsecure)
		if err != nil {
			return Table{}, fmt.Errorf("dram %s: %w", tech.Name, err)
		}
		s := opts.newScheduler(spec, baseCrypto())
		s.Anneal.Iterations = opts.annealIters(200)
		res, err := s.ScheduleNetworkCtx(ctx, net, core.CryptOptCross)
		if err != nil {
			return Table{}, fmt.Errorf("dram %s: %w", tech.Name, err)
		}
		t.AddRow(tech.Name,
			base.Total.Cycles, base.Total.EnergyPJ/1e6,
			res.Total.Cycles, res.Total.EnergyPJ/1e6)
	}
	return t, nil
}

// Fig16 reproduces Figure 16: the area-vs-latency scatter over the
// {PE array} x {GLB} x {crypto engine} space on AlexNet, with the Pareto
// front marked.
func Fig16(ctx context.Context, opts Options) (Table, []dse.DesignPoint, error) {
	t := Table{
		Name:   "fig16",
		Title:  "area vs performance trade-off (AlexNet) with Pareto front",
		Header: []string{"design", "area_mm2", "cycles", "slowdown", "pareto"},
	}
	specs, cryptos := dse.Figure16Space(arch.Base())
	res, err := dse.Sweep(ctx, workload.AlexNet(), specs, cryptos, core.CryptOptCross, opts.sweepOptions())
	if err != nil {
		return Table{}, nil, fmt.Errorf("fig16: %w", err)
	}
	for _, p := range res.Points {
		t.AddRow(p.Label(), p.AreaMM2, p.Cycles, p.Slowdown(), p.Pareto)
	}
	return t, res.Points, nil
}
