package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"

	"secureloop/internal/arch"
	"secureloop/internal/authblock"
	"secureloop/internal/core"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/mapper"
	"secureloop/internal/workload"
)

// Wire DTOs: the JSON request shapes cmd/secured accepts and
// internal/service/client sends. Decoding resolves them into the typed
// requests of this package; every named thing (network, DRAM tech, crypto
// engine, algorithm, objective, mapper mode, orientation) is looked up
// against the corresponding registry so typos fail loudly at the edge. A
// numeric field left at zero means "absent" (the default applies); a
// negative one is refused, never replaced by the default (rejectNegative).

// ScheduleWire is the /v1/schedule request body.
type ScheduleWire struct {
	// Network is either a JSON string naming a built-in network ("alexnet",
	// "resnet18", "mobilenetv2", "vgg16") or an inline network object in the
	// workload JSON format.
	Network json.RawMessage `json:"network"`
	// Arch overrides the base Eyeriss-like architecture field by field.
	Arch *ArchWire `json:"arch,omitempty"`
	// Crypto selects the cryptographic engine (default: pipelined x 1).
	Crypto *CryptoWire `json:"crypto,omitempty"`
	// Algorithm names the Table 1 algorithm (default "Crypt-Opt-Cross").
	Algorithm string `json:"algorithm,omitempty"`
	// Objective is "latency" (default) or "edp".
	Objective string `json:"objective,omitempty"`
	// TopK / AnnealIterations override the scheduler knobs when positive.
	TopK             int `json:"top_k,omitempty"`
	AnnealIterations int `json:"anneal_iterations,omitempty"`
	// Mapper selects the loopnest search strategy.
	Mapper *MapperWire `json:"mapper,omitempty"`
	// DeadlineMS bounds the compute time in milliseconds (0: server default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// ArchWire overrides arch.Base() field by field; zero fields keep the base
// value.
type ArchWire struct {
	Name              string  `json:"name,omitempty"`
	PEsX              int     `json:"pes_x,omitempty"`
	PEsY              int     `json:"pes_y,omitempty"`
	GlobalBufferBytes int     `json:"global_buffer_bytes,omitempty"`
	RegFileBytesPerPE int     `json:"regfile_bytes_per_pe,omitempty"`
	WordBits          int     `json:"word_bits,omitempty"`
	ClockHz           float64 `json:"clock_hz,omitempty"`
	// DRAM names a known DRAM technology: "LPDDR4-64B", "LPDDR4-128B",
	// "HBM2-64B".
	DRAM string `json:"dram,omitempty"`
}

// CryptoWire selects a crypto engine by name and replication count.
type CryptoWire struct {
	// Engine is "pipelined", "parallel" or "serial".
	Engine string `json:"engine"`
	// Count is the engine count per datatype (default 1).
	Count int `json:"count,omitempty"`
}

// MapperWire selects the loopnest search strategy.
type MapperWire struct {
	// Mode is "exhaustive" (default) or "guided".
	Mode string `json:"mode,omitempty"`
	// Epsilon is the guided search's exploration margin; exhaustive mode
	// ignores it.
	Epsilon float64 `json:"epsilon,omitempty"`
	// DisableWarmStart turns off cross-request warm starts in a guided
	// schedule; a sweep never uses them, so it ignores the field.
	DisableWarmStart bool `json:"disable_warm_start,omitempty"`
}

// SweepWire is the /v1/sweep request body.
type SweepWire struct {
	// Network: as in ScheduleWire.
	Network json.RawMessage `json:"network"`
	// Specs and Cryptos span the design space; both empty means the paper's
	// Figure 16 space over the base architecture.
	Specs   []ArchWire   `json:"specs,omitempty"`
	Cryptos []CryptoWire `json:"cryptos,omitempty"`
	// Algorithm names the Table 1 algorithm (default "Crypt-Opt-Cross").
	Algorithm string `json:"algorithm,omitempty"`
	// AnnealIterations overrides the per-point annealing budget.
	AnnealIterations int `json:"anneal_iterations,omitempty"`
	// Mapper selects the per-layer search strategy for every point.
	Mapper *MapperWire `json:"mapper,omitempty"`
	// Front requests the dominance-pruned front-only sweep.
	Front bool `json:"front,omitempty"`
	// DeadlineMS bounds the compute time in milliseconds (0: server default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// AuthBlockWire is the /v1/authblock request body.
type AuthBlockWire struct {
	Producer ProducerWire `json:"producer"`
	Consumer ConsumerWire `json:"consumer"`
	// WordBits / HashBits override authblock.DefaultParams when positive.
	WordBits int `json:"word_bits,omitempty"`
	HashBits int `json:"hash_bits,omitempty"`
	// Orientation ("horizontal", "vertical", "channel") and MaxU select the
	// optional block-size sweep curve.
	Orientation string `json:"orientation,omitempty"`
	MaxU        int    `json:"max_u,omitempty"`
	// DeadlineMS bounds the compute time in milliseconds (0: server default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// ProducerWire mirrors authblock.ProducerGrid.
type ProducerWire struct {
	C             int   `json:"c"`
	H             int   `json:"h"`
	W             int   `json:"w"`
	TileC         int   `json:"tile_c"`
	TileH         int   `json:"tile_h"`
	TileW         int   `json:"tile_w"`
	WritesPerTile int64 `json:"writes_per_tile,omitempty"`
}

// ConsumerWire mirrors authblock.ConsumerGrid. OffH and OffW are signed: a
// window may start before the tensor.
type ConsumerWire struct {
	TileC          int   `json:"tile_c"`
	WinH           int   `json:"win_h"`
	WinW           int   `json:"win_w"`
	StepH          int   `json:"step_h"`
	StepW          int   `json:"step_w"`
	OffH           int   `json:"off_h,omitempty" wire:"signed"`
	OffW           int   `json:"off_w,omitempty" wire:"signed"`
	CountC         int   `json:"count_c"`
	CountH         int   `json:"count_h"`
	CountW         int   `json:"count_w"`
	FetchesPerTile int64 `json:"fetches_per_tile,omitempty"`
}

// Resolve turns the wire form into a typed ScheduleRequest.
func (w *ScheduleWire) Resolve() (*ScheduleRequest, error) {
	if err := rejectNegative(reflect.ValueOf(w), ""); err != nil {
		return nil, err
	}
	net, err := resolveNetwork(w.Network)
	if err != nil {
		return nil, err
	}
	spec, err := resolveArch(w.Arch)
	if err != nil {
		return nil, err
	}
	crypto, err := resolveCrypto(w.Crypto)
	if err != nil {
		return nil, err
	}
	alg, err := ResolveAlgorithm(w.Algorithm)
	if err != nil {
		return nil, err
	}
	obj, err := resolveObjective(w.Objective)
	if err != nil {
		return nil, err
	}
	mo, err := resolveMapper(w.Mapper)
	if err != nil {
		return nil, err
	}
	return &ScheduleRequest{
		Network:          net,
		Spec:             spec,
		Crypto:           crypto,
		Algorithm:        alg,
		Objective:        obj,
		TopK:             w.TopK,
		AnnealIterations: w.AnnealIterations,
		Mapper:           mo,
	}, nil
}

// Resolve turns the wire form into a typed SweepRequest.
func (w *SweepWire) Resolve() (*SweepRequest, error) {
	if err := rejectNegative(reflect.ValueOf(w), ""); err != nil {
		return nil, err
	}
	net, err := resolveNetwork(w.Network)
	if err != nil {
		return nil, err
	}
	alg, err := ResolveAlgorithm(w.Algorithm)
	if err != nil {
		return nil, err
	}
	mo, err := resolveMapper(w.Mapper)
	if err != nil {
		return nil, err
	}
	req := &SweepRequest{
		Network:          net,
		Algorithm:        alg,
		AnnealIterations: w.AnnealIterations,
		Mapper:           mo,
		Front:            w.Front,
	}
	for i := range w.Specs {
		spec, err := resolveArch(&w.Specs[i])
		if err != nil {
			return nil, err
		}
		req.Specs = append(req.Specs, spec)
	}
	for i := range w.Cryptos {
		crypto, err := resolveCrypto(&w.Cryptos[i])
		if err != nil {
			return nil, err
		}
		req.Cryptos = append(req.Cryptos, crypto)
	}
	if (len(req.Specs) == 0) != (len(req.Cryptos) == 0) {
		return nil, fmt.Errorf("service: specs and cryptos must both be given or both omitted")
	}
	return req, nil
}

// Resolve turns the wire form into a typed AuthBlockRequest.
func (w *AuthBlockWire) Resolve() (*AuthBlockRequest, error) {
	if err := rejectNegative(reflect.ValueOf(w), ""); err != nil {
		return nil, err
	}
	par := authblock.DefaultParams()
	if w.WordBits > 0 {
		par.WordBits = w.WordBits
	}
	if w.HashBits > 0 {
		par.HashBits = w.HashBits
	}
	o, err := resolveOrientation(w.Orientation)
	if err != nil {
		return nil, err
	}
	p := authblock.ProducerGrid{
		C: w.Producer.C, H: w.Producer.H, W: w.Producer.W,
		TileC: w.Producer.TileC, TileH: w.Producer.TileH, TileW: w.Producer.TileW,
		WritesPerTile: w.Producer.WritesPerTile,
	}
	c := authblock.ConsumerGrid{
		TileC: w.Consumer.TileC,
		WinH:  w.Consumer.WinH, WinW: w.Consumer.WinW,
		StepH: w.Consumer.StepH, StepW: w.Consumer.StepW,
		OffH: w.Consumer.OffH, OffW: w.Consumer.OffW,
		CountC: w.Consumer.CountC, CountH: w.Consumer.CountH, CountW: w.Consumer.CountW,
		FetchesPerTile: w.Consumer.FetchesPerTile,
	}
	if w.MaxU == 0 {
		o = authblock.AlongQ // no sweep curve: the orientation shapes nothing
	}
	return &AuthBlockRequest{
		Producer:    p,
		Consumer:    c,
		Params:      par,
		Orientation: o,
		MaxU:        w.MaxU,
	}, nil
}

// rejectNegative returns an error naming the first numeric field of the
// wire value v that states a negative number. Zero means "absent", so no
// negative value is a default spelled out: it is refused rather than
// replaced by the base value. It walks nested structs and pointers and
// slices of them, names a field by its JSON path (for example
// "specs[1].pes_x"), and lets fields tagged `wire:"signed"` be negative.
func rejectNegative(v reflect.Value, path string) error {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			return rejectNegative(v.Elem(), path)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Struct {
			for i := range v.Len() {
				if err := rejectNegative(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
					return err
				}
			}
		}
	case reflect.Struct:
		for i := range v.NumField() {
			f := v.Type().Field(i)
			if f.Tag.Get("wire") == "signed" {
				continue
			}
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if path != "" {
				name = path + "." + name
			}
			if err := rejectNegative(v.Field(i), name); err != nil {
				return err
			}
		}
	case reflect.Int, reflect.Int64, reflect.Float64:
		if v.CanInt() && v.Int() < 0 || v.CanFloat() && v.Float() < 0 {
			return fmt.Errorf("service: %s must not be negative (got %v)", path, v)
		}
	}
	return nil
}

// resolveNetwork accepts either a quoted built-in network name or an inline
// workload JSON object.
func resolveNetwork(raw json.RawMessage) (*workload.Network, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("service: request has no network")
	}
	if trimmed[0] == '"' {
		var name string
		if err := json.Unmarshal(trimmed, &name); err != nil {
			return nil, fmt.Errorf("service: network name: %w", err)
		}
		return workload.ByName(name)
	}
	return workload.ParseJSON(bytes.NewReader(trimmed))
}

// resolveArch overlays the wire fields on arch.Base().
func resolveArch(w *ArchWire) (arch.Spec, error) {
	spec := arch.Base()
	if w == nil {
		return spec, nil
	}
	if w.Name != "" {
		spec.Name = w.Name
	}
	if w.PEsX > 0 {
		spec.PEsX = w.PEsX
	}
	if w.PEsY > 0 {
		spec.PEsY = w.PEsY
	}
	if w.GlobalBufferBytes > 0 {
		spec.GlobalBufferBytes = w.GlobalBufferBytes
	}
	if w.RegFileBytesPerPE > 0 {
		spec.RegFileBytesPerPE = w.RegFileBytesPerPE
	}
	if w.WordBits > 0 {
		spec.WordBits = w.WordBits
	}
	if w.ClockHz > 0 {
		spec.ClockHz = w.ClockHz
	}
	if w.DRAM != "" {
		found := false
		for _, t := range arch.DRAMTechs() {
			if strings.EqualFold(t.Name, w.DRAM) {
				spec.DRAM = t
				found = true
				break
			}
		}
		if !found {
			return arch.Spec{}, fmt.Errorf("service: unknown DRAM technology %q", w.DRAM)
		}
	}
	return spec, nil
}

// resolveCrypto looks up the engine by name (default pipelined x 1).
func resolveCrypto(w *CryptoWire) (cryptoengine.Config, error) {
	name, count := "pipelined", 1
	if w != nil {
		if w.Engine != "" {
			name = w.Engine
		}
		if w.Count > 0 {
			count = w.Count
		}
	}
	eng, err := cryptoengine.ByName(name)
	if err != nil {
		return cryptoengine.Config{}, err
	}
	return cryptoengine.Config{Engine: eng, CountPerDatatype: count}, nil
}

// ResolveAlgorithm parses a Table 1 algorithm name (empty: Crypt-Opt-Cross,
// the paper's full algorithm). Matching is case-insensitive.
func ResolveAlgorithm(name string) (core.Algorithm, error) {
	if name == "" {
		return core.CryptOptCross, nil
	}
	for alg := core.Unsecure; alg <= core.CryptOptCross; alg++ {
		if strings.EqualFold(alg.String(), name) {
			return alg, nil
		}
	}
	return 0, fmt.Errorf("service: unknown algorithm %q", name)
}

// resolveObjective parses "latency" (default) or "edp".
func resolveObjective(name string) (core.Objective, error) {
	switch strings.ToLower(name) {
	case "", "latency":
		return core.MinLatency, nil
	case "edp":
		return core.MinEDP, nil
	}
	return 0, fmt.Errorf("service: unknown objective %q", name)
}

// resolveMapper parses the mapper mode ("exhaustive" default, "guided").
func resolveMapper(w *MapperWire) (mapper.Options, error) {
	var opt mapper.Options
	if w == nil {
		return opt, nil
	}
	switch strings.ToLower(w.Mode) {
	case "", "exhaustive":
		opt.Mode = mapper.Exhaustive
	case "guided":
		opt.Mode = mapper.Guided
	default:
		return opt, fmt.Errorf("service: unknown mapper mode %q", w.Mode)
	}
	opt.Epsilon = w.Epsilon
	opt.DisableWarmStart = w.DisableWarmStart
	return opt, nil
}

// resolveOrientation parses an orientation name (empty: horizontal).
func resolveOrientation(name string) (authblock.Orientation, error) {
	if name == "" {
		return authblock.AlongQ, nil
	}
	for o := authblock.Orientation(0); o < authblock.NumOrientations; o++ {
		if strings.EqualFold(o.String(), name) {
			return o, nil
		}
	}
	return 0, fmt.Errorf("service: unknown orientation %q", name)
}
