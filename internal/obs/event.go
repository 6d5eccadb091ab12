package obs

// The event stream: every event the pipeline emits is one Event envelope,
// and every event but EventAuthBlockSearch can cross a process boundary
// (the cmd/secured SSE stream) as one ordered, self-describing JSON stream.
//
// Sequence numbers are assigned by the Fanout observer (fanout.go) at emit
// time, strictly increasing per fanout, so a consumer can both order events
// and detect gaps left by its own drop policy. Emitters leave Seq zero.

// EventKind names the payload an Event carries.
type EventKind string

const (
	// EventStageStart / EventStageEnd wrap StageEvent.
	EventStageStart EventKind = "stage_start"
	EventStageEnd   EventKind = "stage_end"
	// EventLayer wraps LayerEvent (one completed work item).
	EventLayer EventKind = "layer"
	// EventAnneal wraps AnnealEvent.
	EventAnneal EventKind = "anneal"
	// EventMapperSearch wraps MapperSearchEvent.
	EventMapperSearch EventKind = "mapper_search"
	// EventSweepPoint wraps SweepPointEvent.
	EventSweepPoint EventKind = "sweep_point"
	// EventAuthBlockSearch carries no payload: the event itself counts one
	// AuthBlock optimal-assignment search that actually ran, one the memo
	// and the persistent store could not answer. Fanout drops it, so it
	// never reaches the serialized progress stream.
	EventAuthBlockSearch EventKind = "authblock_search"
)

// Event is the envelope of one pipeline event: Seq orders it, Kind names
// the payload, and exactly the payload pointer Kind names is set (none for
// EventAuthBlockSearch; the others marshal away under omitempty). Payloads
// are wall-clock-free by the Observer contract, so a serialized stream is
// as deterministic as the run that emitted it.
type Event struct {
	Seq    uint64             `json:"seq"`
	Kind   EventKind          `json:"kind"`
	Stage  *StageEvent        `json:"stage_event,omitempty"`
	Layer  *LayerEvent        `json:"layer_event,omitempty"`
	Anneal *AnnealEvent       `json:"anneal_event,omitempty"`
	Mapper *MapperSearchEvent `json:"mapper_event,omitempty"`
	Sweep  *SweepPointEvent   `json:"sweep_event,omitempty"`
}

// Multi returns an Observer that forwards every event to each of obs in
// order. Nil entries are skipped; with no non-nil entries it is the no-op
// observer.
func Multi(observers ...Observer) Observer {
	var live []Observer
	for _, o := range observers {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nop{}
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Observer

func (m multi) Observe(e Event) {
	for _, o := range m {
		o.Observe(e)
	}
}
