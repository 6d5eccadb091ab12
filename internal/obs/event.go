package obs

// The serialized event stream: every Observer callback but AuthBlockSearch
// has an Event envelope carrying a sequence number and exactly one payload,
// so progress can cross a process boundary (the cmd/secured SSE stream) as
// one ordered, self-describing JSON stream instead of parallel callback
// channels.
//
// Sequence numbers are assigned by the Fanout observer (fanout.go) at emit
// time, strictly increasing per fanout, so a consumer can both order events
// and detect gaps left by its own drop policy.

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
)

// Event is the serialized envelope of one Observer callback: Seq orders it,
// Kind names the payload, and exactly one of the payload pointers is set
// (the others marshal away under omitempty). Payloads are wall-clock-free
// by the Observer contract, so a serialized stream is as deterministic as
// the run that emitted it.
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
// order. Nil entries are skipped; with no non-nil entries it is Nop.
func Multi(observers ...Observer) Observer {
	var live []Observer
	for _, o := range observers {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return Nop{}
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Observer

func (m multi) StageStart(e StageEvent) {
	for _, o := range m {
		o.StageStart(e)
	}
}

func (m multi) StageEnd(e StageEvent) {
	for _, o := range m {
		o.StageEnd(e)
	}
}

func (m multi) LayerScheduled(e LayerEvent) {
	for _, o := range m {
		o.LayerScheduled(e)
	}
}

func (m multi) AnnealProgress(e AnnealEvent) {
	for _, o := range m {
		o.AnnealProgress(e)
	}
}

func (m multi) MapperSearch(e MapperSearchEvent) {
	for _, o := range m {
		o.MapperSearch(e)
	}
}

func (m multi) AuthBlockSearch(e AuthBlockSearchEvent) {
	for _, o := range m {
		o.AuthBlockSearch(e)
	}
}

func (m multi) SweepPoint(e SweepPointEvent) {
	for _, o := range m {
		o.SweepPoint(e)
	}
}
