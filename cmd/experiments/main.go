// Command experiments regenerates the paper's evaluation tables and
// figures as aligned text (stdout) and CSV files.
//
// Usage:
//
//	experiments [-fig all|3|t2|9|10|11|12|13|14|15|16|dram] [-quick] [-guided] [-epsilon 0]
//	            [-out results] [-store dir] [-cachestats] [-progress]
//	            [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -quick trades fidelity for speed (fewer annealing iterations and seeds);
// use it for smoke runs. The full run regenerates every experiment at
// paper-scale settings. -guided switches every loopnest search to the
// guided mode: the lower-bound-guided best-first search on every layer,
// with warm starts (the default exhaustive mode already runs it, cold and
// exact, on every layer whose stride is at most its filter extent; at the
// default -epsilon 0 the two modes agree except on layers whose stride
// exceeds the filter extent, see DESIGN.md §12). -store names a persistent
// result-store directory: a warm rerun replays byte-identical schedules
// from disk instead of recomputing them. -progress streams per-stage
// scheduling progress to stderr. -cachestats reports every memoisation
// tier's hit ratio and counters (mapper search cache, tile-candidate
// cache, warm-start store, AuthBlock memos, persistent store) after the
// run, with the best-first mapper and AuthBlock searches the run's
// schedulers reported.
//
// Ctrl-C cancels the run: in-flight schedules stop at their next stage
// boundary and the error names the stage that was interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"secureloop/internal/authblock"
	"secureloop/internal/experiments"
	"secureloop/internal/mapper"
	"secureloop/internal/memo"
	"secureloop/internal/obs"
	"secureloop/internal/prof"
	"secureloop/internal/store"
)

func main() {
	fig := flag.String("fig", "all", "experiment to run (all, 3, t2, 9, 10, 11, 12, 13, 14, 15, 16, dram, hashsize)")
	quick := flag.Bool("quick", false, "reduced-fidelity fast run")
	guided := flag.Bool("guided", false, "use the guided loopnest search (byte-identical results at epsilon 0)")
	epsilon := flag.Float64("epsilon", 0, "guided-search relaxation: allowed per-rank cycle regression (e.g. 0.01)")
	out := flag.String("out", "results", "directory for CSV output (empty to skip)")
	storeDir := flag.String("store", "", "persistent result-store directory: warm reruns replay byte-identical schedules from disk")
	cachestats := flag.Bool("cachestats", false, "report per-tier cache hit ratios and counters after the run")
	progress := flag.Bool("progress", false, "stream scheduling progress to stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var logger obs.Observer
	if *progress {
		logger = obs.NewLogger(os.Stderr)
	}
	var tally obs.Tally // the searches -cachestats reports
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	opts := experiments.Options{Quick: *quick, Observe: obs.Multi(logger, &tally)}
	if *guided {
		opts.Mapper = mapper.Options{Mode: mapper.Guided, Epsilon: *epsilon}
	}
	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{})
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := st.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: store close:", err)
			}
		}()
		opts.Store = st
	}
	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]
	run := func(id string, fn func() ([]experiments.Table, error)) {
		if !all && !want[id] {
			return
		}
		start := time.Now()
		tables, err := fn()
		if err != nil {
			if errors.Is(err, context.Canceled) {
				// The wrapped error names the experiment and the stage it
				// reached when Ctrl-C arrived.
				fmt.Fprintf(os.Stderr, "experiments: interrupted: %v\n", err)
				os.Exit(130)
			}
			fatal(err)
		}
		for _, t := range tables {
			fmt.Println(t.Text())
			if *out != "" {
				if err := os.MkdirAll(*out, 0o755); err != nil {
					fatal(err)
				}
				path := filepath.Join(*out, t.Name+".csv")
				if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
					fatal(err)
				}
				fmt.Printf("wrote %s\n\n", path)
			}
		}
		fmt.Printf("[%s done in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	run("3", func() ([]experiments.Table, error) { return []experiments.Table{experiments.Fig3()}, nil })
	run("t2", func() ([]experiments.Table, error) { return []experiments.Table{experiments.Table2()}, nil })
	run("9", func() ([]experiments.Table, error) {
		h, v := experiments.Fig9()
		return []experiments.Table{h, v}, nil
	})
	run("10", func() ([]experiments.Table, error) {
		t, err := experiments.Fig10(ctx, opts)
		return []experiments.Table{t}, err
	})
	run("11", func() ([]experiments.Table, error) {
		a, b, _, err := experiments.Fig11(ctx, opts)
		return []experiments.Table{a, b}, err
	})
	run("12", func() ([]experiments.Table, error) {
		t, err := experiments.Fig12(ctx, opts)
		return []experiments.Table{t}, err
	})
	run("13", func() ([]experiments.Table, error) {
		t, err := experiments.Fig13(ctx, opts)
		return []experiments.Table{t}, err
	})
	run("14", func() ([]experiments.Table, error) {
		t, err := experiments.Fig14(ctx, opts)
		return []experiments.Table{t}, err
	})
	run("15", func() ([]experiments.Table, error) {
		t, err := experiments.Fig15(ctx, opts)
		return []experiments.Table{t}, err
	})
	run("dram", func() ([]experiments.Table, error) {
		t, err := experiments.DRAMStudy(ctx, opts)
		return []experiments.Table{t}, err
	})
	run("16", func() ([]experiments.Table, error) {
		t, _, err := experiments.Fig16(ctx, opts)
		return []experiments.Table{t}, err
	})
	run("hashsize", func() ([]experiments.Table, error) {
		t, err := experiments.HashSizeStudy(ctx, opts)
		return []experiments.Table{t}, err
	})

	if *cachestats {
		printCacheStats(st, tally.Counts())
	}
}

// ratio renders hits over lookups as a percentage, "-" before any lookup.
func ratio(hits, misses int64) string {
	total := hits + misses
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(total))
}

// printCacheStats reports every memoisation tier with its hit ratio: the
// in-memory mapper and AuthBlock memos, the searches the run's schedulers
// reported (work), and (when -store is set) the persistent cross-process
// tier.
func printCacheStats(st *store.Store, work obs.Counts) {
	ms, mt, mw := mapper.CacheStats()
	printMemo("mapper search cache:", ms)
	printMemo("mapper tile cache:", mt)
	printMemo("mapper warm store:", mw)
	fmt.Printf("guided search:        %d searches, %d evaluated, %d pruned, %d skipped, %d warm seeds\n",
		work.MapperSearches, work.Evaluated, work.Pruned, work.Skipped, work.WarmSeeds)
	ao, at, ad, as := authblock.CacheStats()
	printMemo("authblock optimal:", ao)
	fmt.Printf("authblock searches:   %d run\n", work.AuthBlockSearches)
	printMemo("authblock tile-block:", at)
	printMemo("authblock decomp:", ad)
	printMemo("authblock sizes:", as)
	if st != nil {
		ss := st.Stats()
		fmt.Printf("persistent store:     %s hit ratio (%d hits, %d misses), %d puts, %d corrupt, %d evicted segments, %d entries, %d bytes\n",
			ratio(ss.Hits, ss.Misses), ss.Hits, ss.Misses, ss.Puts, ss.Corrupt, ss.EvictedSegments, ss.Entries, ss.Bytes)
	}
}

func printMemo(label string, s memo.Stats) {
	fmt.Printf("%-21s %s hit ratio (%d hits, %d misses), %d coalesced, %d stores, %d evictions, %d entries\n",
		label, ratio(s.Hits, s.Misses), s.Hits, s.Misses, s.Shared, s.Stores, s.Evictions, s.Entries)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
