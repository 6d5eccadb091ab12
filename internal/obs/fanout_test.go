package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

// TestFanoutOrdering: every subscriber sees its events in strictly
// increasing Seq order, whatever mix of payloads concurrent emitters
// produce.
func TestFanoutOrdering(t *testing.T) {
	f := NewFanout()
	sub := f.Subscribe(10_000)

	const emitters, perEmitter = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				switch i % 3 {
				case 0:
					f.Observe(Event{Kind: EventStageStart, Stage: &StageEvent{Stage: StageMapping, Units: i}})
				case 1:
					f.Observe(Event{Kind: EventLayer, Layer: &LayerEvent{Stage: StageMapping, Index: i, Done: i, Total: perEmitter}})
				default:
					f.Observe(Event{Kind: EventAnneal, Anneal: &AnnealEvent{Tag: g, Iteration: i}})
				}
			}
		}(g)
	}
	wg.Wait()
	f.Close()

	var last uint64
	var got int
	for ev := range sub.Events() {
		if ev.Seq <= last {
			t.Fatalf("seq went %d -> %d; events must be strictly ordered", last, ev.Seq)
		}
		last = ev.Seq
		got++
	}
	if want := emitters * perEmitter; got != want {
		t.Fatalf("received %d events, want %d (buffer was large enough for all)", got, want)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("dropped %d events despite a large buffer", sub.Dropped())
	}
}

// TestFanoutStalledSubscriberNeverBlocks is the scheduler-safety contract:
// a subscriber that never reads (a stalled SSE client) costs itself dropped
// events, not the emitter a blocked send. The emit loop runs synchronously
// on this goroutine — if a full buffer blocked, this test would deadlock
// rather than fail.
func TestFanoutStalledSubscriberNeverBlocks(t *testing.T) {
	f := NewFanout()
	stalled := f.Subscribe(1) // never read from
	live := f.Subscribe(1000)

	const n = 500
	for i := 0; i < n; i++ {
		f.Observe(Event{Kind: EventLayer, Layer: &LayerEvent{Index: i, Done: i + 1, Total: n}})
	}
	f.Close()

	if d := stalled.Dropped(); d != n-1 {
		t.Fatalf("stalled subscriber dropped %d events, want %d (buffer 1)", d, n-1)
	}
	// The live subscriber got everything, in order, with detectable Seq
	// continuity.
	want := uint64(0)
	for ev := range live.Events() {
		want++
		if ev.Seq != want {
			t.Fatalf("live subscriber saw seq %d, want %d", ev.Seq, want)
		}
	}
	if want != n {
		t.Fatalf("live subscriber received %d events, want %d", want, n)
	}
	// The stalled subscriber's single buffered event is still readable and
	// is the earliest emitted (drop-newest policy keeps the oldest).
	ev, ok := <-stalled.Events()
	if !ok || ev.Seq != 1 {
		t.Fatalf("stalled subscriber's buffered event = %+v ok=%v, want seq 1", ev, ok)
	}
}

// TestFanoutLateSubscribe: a subscriber attached mid-stream starts at the
// current sequence position (coalesced followers join mid-flight).
func TestFanoutLateSubscribe(t *testing.T) {
	f := NewFanout()
	f.Observe(Event{Kind: EventStageStart, Stage: &StageEvent{Stage: StageMapping, Units: 1}})
	f.Observe(Event{Kind: EventStageEnd, Stage: &StageEvent{Stage: StageMapping, Units: 1}})

	late := f.Subscribe(4)
	f.Observe(Event{Kind: EventStageStart, Stage: &StageEvent{Stage: StageAnneal, Units: 2}})
	f.Close()

	ev, ok := <-late.Events()
	if !ok {
		t.Fatal("late subscriber saw no events")
	}
	if ev.Seq != 3 || ev.Kind != EventStageStart || ev.Stage.Stage != StageAnneal {
		t.Fatalf("late subscriber's first event = %+v, want seq 3 stage_start anneal", ev)
	}
	if _, ok := <-late.Events(); ok {
		t.Fatal("expected channel closed after Close")
	}
}

// TestEventJSONRoundTrip pins the wire shape: one payload pointer set, the
// rest omitted, kind and seq always present.
func TestEventJSONRoundTrip(t *testing.T) {
	f := NewFanout()
	sub := f.Subscribe(2)
	f.Observe(Event{Kind: EventLayer, Layer: &LayerEvent{Stage: StageMapping, Index: 3, Name: "conv1", Done: 4, Total: 8}})
	f.Close()

	ev := <-sub.Events()
	raw, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["kind"] != string(EventLayer) || m["seq"] != float64(1) {
		t.Fatalf("marshalled envelope %s missing kind/seq", raw)
	}
	if _, ok := m["layer_event"]; !ok {
		t.Fatalf("marshalled envelope %s missing layer_event payload", raw)
	}
	for _, absent := range []string{"stage_event", "anneal_event", "mapper_event", "sweep_event"} {
		if _, ok := m[absent]; ok {
			t.Fatalf("marshalled envelope %s carries unexpected payload %s", raw, absent)
		}
	}
	var back Event
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Layer == nil || *back.Layer != *ev.Layer || back.Seq != ev.Seq || back.Kind != ev.Kind {
		t.Fatalf("round trip %+v != %+v", back, ev)
	}
}

// TestMulti: events reach every non-nil observer; nil entries collapse.
func TestMulti(t *testing.T) {
	a, b := NewFanout(), NewFanout()
	sa, sb := a.Subscribe(2), b.Subscribe(2)
	m := Multi(nil, a, nil, b)
	m.Observe(Event{Kind: EventStageStart, Stage: &StageEvent{Stage: StageSweep, Units: 7}})
	a.Close()
	b.Close()
	ea, oka := <-sa.Events()
	eb, okb := <-sb.Events()
	if !oka || !okb || ea.Stage.Units != 7 || eb.Stage.Units != 7 {
		t.Fatalf("multi delivery failed: %+v/%v %+v/%v", ea, oka, eb, okb)
	}
	if _, ok := Multi(nil, nil).(nop); !ok {
		t.Fatal("Multi of nils should be the no-op observer")
	}
	if got := Multi(nil, a); got != Observer(a) {
		t.Fatal("Multi of one observer should return it unwrapped")
	}
}
