package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
)

// Answer shapes the correctness checks read.
type scheduleAnswer struct {
	Total struct {
		Cycles int64 `json:"cycles"`
	} `json:"total"`
	Layers []struct {
		Stats struct {
			Cycles int64 `json:"cycles"`
		} `json:"stats"`
	} `json:"layers"`
}

type sweepAnswer struct {
	FrontOnly bool `json:"front_only"`
	Points    []struct {
		Label   string  `json:"label"`
		AreaMM2 float64 `json:"area_mm2"`
		Cycles  int64   `json:"cycles"`
		Pareto  bool    `json:"pareto"`
	} `json:"points"`
}

type authblockAnswer struct {
	Optimal struct {
		U int `json:"u"`
	} `json:"optimal"`
	Costs struct {
		Total int64 `json:"total_bits"`
	} `json:"costs"`
	Baseline struct {
		Total int64 `json:"total_bits"`
	} `json:"tile_baseline"`
	Sweep []json.RawMessage `json:"sweep"`
}

// checkShape rejects an answer that cannot be right whatever the seed: a
// schedule whose layer cycles do not add up to its total, a front with a
// dominated point, an AuthBlock sweep curve of the wrong length.
func checkShape(r request, body []byte) error {
	if len(body) == 0 || body[len(body)-1] != '\n' {
		return errors.New("answer is not one newline-terminated JSON document")
	}
	switch r.path {
	case "/v1/schedule":
		var a scheduleAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return err
		}
		var sum int64
		for _, l := range a.Layers {
			sum += l.Stats.Cycles
		}
		if len(a.Layers) == 0 || a.Total.Cycles <= 0 || sum != a.Total.Cycles {
			return fmt.Errorf("schedule total %d cycles over %d layers summing to %d", a.Total.Cycles, len(a.Layers), sum)
		}
	case "/v1/sweep":
		var a sweepAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return err
		}
		if !a.FrontOnly || len(a.Points) == 0 {
			return fmt.Errorf("front-only sweep answered %d points (front_only=%v)", len(a.Points), a.FrontOnly)
		}
		for i, p := range a.Points {
			for j, q := range a.Points {
				if i != j && q.AreaMM2 <= p.AreaMM2 && q.Cycles <= p.Cycles && (q.AreaMM2 < p.AreaMM2 || q.Cycles < p.Cycles) {
					return fmt.Errorf("front point %s is dominated by %s", p.Label, q.Label)
				}
			}
			if !p.Pareto {
				return fmt.Errorf("front point %s not marked pareto", p.Label)
			}
		}
	case "/v1/authblock":
		var a authblockAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return err
		}
		var w authblockWire
		if err := json.Unmarshal(r.body, &w); err != nil {
			return err
		}
		if a.Optimal.U < 1 || a.Costs.Total < 0 || a.Baseline.Total < 0 || len(a.Sweep) != w.MaxU {
			return fmt.Errorf("authblock optimum u=%d at %d bits, tile baseline %d bits, sweep %d/%d entries",
				a.Optimal.U, a.Costs.Total, a.Baseline.Total, len(a.Sweep), w.MaxU)
		}
	}
	return nil
}

// checkFig16 compares the Figure 16 sweep's front with the pareto rows of
// results/fig16.csv: the same design labels with the same cycles, and
// areas equal to the CSV's three decimals.
func checkFig16(root string, body []byte) error {
	f, err := os.Open(filepath.Join(root, "results", "fig16.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return fmt.Errorf("results/fig16.csv: %w", err)
	}
	var a sweepAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return err
	}
	want := 0
	for _, row := range rows[1:] {
		if len(row) != 5 || row[4] != "true" {
			continue
		}
		want++
		area, err1 := strconv.ParseFloat(row[1], 64)
		cycles, err2 := strconv.ParseInt(row[2], 10, 64)
		if err := errors.Join(err1, err2); err != nil {
			return fmt.Errorf("results/fig16.csv row %q: %w", row, err)
		}
		found := false
		for _, p := range a.Points {
			if p.Label == row[0] {
				found = true
				if p.Cycles != cycles || math.Abs(p.AreaMM2-area) > 0.0005+1e-9 {
					return fmt.Errorf("fig16 %s: got %d cycles, %.6f mm2; want %d, %s", row[0], p.Cycles, p.AreaMM2, cycles, row[1])
				}
			}
		}
		if !found {
			return fmt.Errorf("fig16 front lacks %s", row[0])
		}
	}
	if want != len(a.Points) {
		return fmt.Errorf("fig16 front has %d points, results/fig16.csv %d", len(a.Points), want)
	}
	return nil
}

// golden is one committed hash: the SHA-256 of a workload's golden
// requests' answers, concatenated in request order.
type golden struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	SHA256   string `json:"sha256"`
}

func loadGoldens(root string) ([]golden, error) {
	raw, err := os.ReadFile(filepath.Join(root, "bench", "golden", "golden.json"))
	if err != nil {
		return nil, err
	}
	var gs []golden
	return gs, json.Unmarshal(raw, &gs)
}

// goldenRequests are the requests a workload's golden hash covers: its
// fill corpus, or the first w.golden requests of its measured stream.
func goldenRequests(w *workload, s *stream) []request {
	if len(s.fill) > 0 {
		return s.fill
	}
	reqs := make([]request, w.golden)
	for i := range reqs {
		reqs[i] = s.at(i)
	}
	return reqs
}

func hashAnswers(bodies [][]byte) string {
	h := sha256.New()
	h.Write(bytes.Join(bodies, nil))
	return fmt.Sprintf("%x", h.Sum(nil))
}
