package dse

import (
	"context"
	"strings"
	"sync"
	"testing"

	"secureloop/internal/arch"
	"secureloop/internal/authblock"
	"secureloop/internal/core"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/mapper"
	"secureloop/internal/obs"
	"secureloop/internal/workload"
)

// payloadOf names the one payload each event kind carries ("" for none).
var payloadOf = map[obs.EventKind]string{
	obs.EventStageStart:      "stage",
	obs.EventStageEnd:        "stage",
	obs.EventLayer:           "layer",
	obs.EventAnneal:          "anneal",
	obs.EventMapperSearch:    "mapper",
	obs.EventSweepPoint:      "sweep",
	obs.EventAuthBlockSearch: "",
}

// envelopeChecker fails the test on any event that does not carry exactly
// the payload its Kind names, or that arrives numbered: only a Fanout
// numbers events, and only its own copy. It counts the kinds it saw.
type envelopeChecker struct {
	t    *testing.T
	mu   sync.Mutex
	seen map[obs.EventKind]int // guarded by mu
}

func (c *envelopeChecker) Observe(e obs.Event) {
	var set []string
	for _, p := range []struct {
		name string
		ok   bool
	}{
		{"stage", e.Stage != nil}, {"layer", e.Layer != nil}, {"anneal", e.Anneal != nil},
		{"mapper", e.Mapper != nil}, {"sweep", e.Sweep != nil},
	} {
		if p.ok {
			set = append(set, p.name)
		}
	}
	if want, known := payloadOf[e.Kind]; !known || strings.Join(set, ",") != want {
		c.t.Errorf("event kind %q carries payloads [%s], want [%s]", e.Kind, strings.Join(set, ","), want)
	}
	if e.Seq != 0 {
		c.t.Errorf("event kind %q reached an observer numbered %d", e.Kind, e.Seq)
	}
	c.mu.Lock()
	c.seen[e.Kind]++
	c.mu.Unlock()
}

// TestEventEnvelopes: every emit site pairs its payload with its kind. A
// Crypt-Opt-Cross schedule and a pruned two-by-two sweep, on cold memos so
// every search runs, emit every kind; each event carries exactly the
// payload its kind names, and a Fanout subscriber receives every event but
// the payload-less AuthBlock search count.
func TestEventEnvelopes(t *testing.T) {
	mapper.ResetCaches()
	authblock.ResetCaches()
	chk := &envelopeChecker{t: t, seen: map[obs.EventKind]int{}}
	fan := obs.NewFanout()
	sub := fan.Subscribe(1 << 16) // holds every event of both runs
	ob := obs.Multi(fan, chk)
	ctx := context.Background()

	s := core.New(arch.Base(), cryptoengine.Config{Engine: cryptoengine.Parallel(), CountPerDatatype: 1})
	s.Anneal.Iterations = 200
	s.Observe = ob
	if _, err := s.ScheduleNetworkCtx(ctx, workload.AlexNet(), core.CryptOptCross); err != nil {
		t.Fatal(err)
	}
	base := arch.Base()
	specs := []arch.Spec{base.WithGlobalBuffer(16 * 1024), base.WithPEs(28, 24).WithGlobalBuffer(131 * 1024)}
	cryptos := []cryptoengine.Config{
		{Engine: cryptoengine.Parallel(), CountPerDatatype: 1},
		{Engine: cryptoengine.Serial(), CountPerDatatype: 1},
	}
	opts := coordOpts()
	opts.Prune = true
	opts.Observe = ob
	if _, err := Sweep(ctx, workload.AlexNet(), specs, cryptos, core.CryptOptCross, opts); err != nil {
		t.Fatal(err)
	}
	fan.Close()

	var streamed int
	for ev := range sub.Events() {
		streamed++
		if ev.Kind == obs.EventAuthBlockSearch {
			t.Errorf("a fanout subscriber received %q event seq %d", ev.Kind, ev.Seq)
		}
	}
	chk.mu.Lock()
	defer chk.mu.Unlock()
	for kind := range payloadOf {
		if chk.seen[kind] == 0 {
			t.Errorf("no %q event emitted", kind)
		}
	}
	total := 0
	for _, n := range chk.seen {
		total += n
	}
	if want := total - chk.seen[obs.EventAuthBlockSearch]; streamed != want || sub.Dropped() != 0 {
		t.Errorf("subscriber received %d events (%d dropped), want %d", streamed, sub.Dropped(), want)
	}
}
