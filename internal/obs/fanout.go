package obs

import (
	"sync"
	"sync/atomic"
)

// Fanout is an Observer that multiplexes one pipeline's progress events to
// any number of concurrent subscribers — the seam that lets a single
// scheduling run stream progress to several SSE clients (coalesced
// requests share one flight, so they share one Fanout) without the
// scheduler ever knowing how many are listening.
//
// Delivery contract:
//
//   - Ordered: events carry a per-fanout sequence number assigned under one
//     lock, and every subscriber observes its events in strictly increasing
//     Seq order.
//   - Non-blocking (the drop policy): a subscriber is a bounded buffer; when
//     it is full the event is dropped for that subscriber only — newest
//     dropped, never the emitter blocked — and the subscriber's Dropped
//     counter advances. A stalled SSE client therefore costs its own stream
//     gaps (detectable as Seq jumps), never scheduler throughput.
//   - Late subscribers see only events emitted after Subscribe; coalesced
//     followers attaching mid-flight start mid-stream by design.
//
// The zero value is not ready to use; call NewFanout.
type Fanout struct {
	mu   sync.Mutex
	seq  uint64          // guarded by mu
	subs []*Subscription // guarded by mu
}

// NewFanout returns an empty fanout; it is a valid (event-discarding)
// Observer even before the first Subscribe.
func NewFanout() *Fanout {
	return &Fanout{}
}

// Subscription is one subscriber's bounded, ordered view of a fanout's
// event stream.
type Subscription struct {
	f       *Fanout
	ch      chan Event
	dropped atomic.Int64
	closed  bool // guarded by f.mu
}

// Subscribe registers a new subscriber with the given buffer capacity
// (minimum 1). Events emitted while the buffer is full are dropped for this
// subscriber and counted.
func (f *Fanout) Subscribe(buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	s := &Subscription{f: f, ch: make(chan Event, buffer)}
	f.mu.Lock()
	f.subs = append(f.subs, s)
	f.mu.Unlock()
	return s
}

// Events is the subscriber's ordered event channel. It is closed by
// Unsubscribe and by the fanout's Close.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped reports how many events the drop policy discarded for this
// subscriber so far.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Unsubscribe detaches the subscriber and closes its channel. Safe to call
// more than once; pending buffered events remain readable until the channel
// drains. The close happens under f.mu — the same lock Observe sends under —
// so no send can race the close.
func (s *Subscription) Unsubscribe() {
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for i, sub := range s.f.subs {
		if sub == s {
			s.f.subs = append(s.f.subs[:i], s.f.subs[i+1:]...)
			break
		}
	}
	close(s.ch)
}

// Close closes every remaining subscription; emitting after Close silently
// discards (the run outliving its last listener is not an error).
func (f *Fanout) Close() {
	f.mu.Lock()
	subs := f.subs
	f.subs = nil
	f.mu.Unlock()
	for _, s := range subs {
		s.Unsubscribe()
	}
}

// Observe assigns the next sequence number and offers the event to every
// subscriber. The single lock both orders sequence numbers and serialises
// sends, so per-subscriber ordering matches Seq order; the non-blocking
// send is the drop policy. EventAuthBlockSearch is a work count with no
// payload, not progress, so it is dropped before it takes a number.
func (f *Fanout) Observe(ev Event) {
	if ev.Kind == EventAuthBlockSearch {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	ev.Seq = f.seq
	for _, s := range f.subs {
		select {
		case s.ch <- ev:
		default:
			s.dropped.Add(1)
		}
	}
}
