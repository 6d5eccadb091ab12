package secureloop_test

import (
	"sync/atomic"
	"testing"

	secureloop "secureloop"
)

// TestPublicAPIQuickstart exercises the documented public flow end to end.
func TestPublicAPIQuickstart(t *testing.T) {
	net := secureloop.AlexNet()
	spec := secureloop.BaseArch()
	crypto := secureloop.CryptoConfig{Engine: secureloop.ParallelEngine(), CountPerDatatype: 1}

	s := secureloop.NewScheduler(spec, crypto)
	s.Anneal.Iterations = 50

	base, err := s.ScheduleNetwork(net, secureloop.Unsecure)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ScheduleNetwork(net, secureloop.CryptOptCross)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Cycles < base.Total.Cycles {
		t.Error("secure run faster than unsecure baseline")
	}
	if len(res.Layers) != net.NumLayers() {
		t.Error("missing layer results")
	}
}

// searchCounter is an Observer written against the public API alone: it
// counts the mapper searches a run reports.
type searchCounter struct{ n atomic.Int64 }

func (c *searchCounter) Observe(e secureloop.Event) {
	if e.Kind == secureloop.EventMapperSearch && e.Mapper.Layer != "" {
		c.n.Add(1)
	}
}

// TestPublicObserver: a program outside the module can implement Observer
// and read the work-count events of a schedule.
func TestPublicObserver(t *testing.T) {
	spec := secureloop.BaseArch()
	// A buffer size no other test schedules, so no cache answers the
	// searches and each one reports.
	spec.GlobalBufferBytes = 48 * 1024
	s := secureloop.NewScheduler(spec, secureloop.CryptoConfig{Engine: secureloop.ParallelEngine(), CountPerDatatype: 1})
	s.Anneal.Iterations = 20
	var c searchCounter
	s.Observe = &c
	if _, err := s.ScheduleNetwork(secureloop.AlexNet(), secureloop.CryptOptCross); err != nil {
		t.Fatal(err)
	}
	if c.n.Load() == 0 {
		t.Error("the observer saw no mapper_search event")
	}
}

func TestNetworkByName(t *testing.T) {
	for _, name := range []string{"alexnet", "resnet18", "mobilenetv2"} {
		n, err := secureloop.NetworkByName(name)
		if err != nil || n.NumLayers() == 0 {
			t.Errorf("NetworkByName(%q): %v", name, err)
		}
	}
	if _, err := secureloop.NetworkByName("lenet"); err == nil {
		t.Error("unknown network accepted")
	}
}

func TestEngineConstructors(t *testing.T) {
	if secureloop.PipelinedEngine().CyclesPerBlock() != 1 {
		t.Error("pipelined interval")
	}
	if secureloop.ParallelEngine().CyclesPerBlock() != 11 {
		t.Error("parallel interval")
	}
	if secureloop.SerialEngine().CyclesPerBlock() != 336 {
		t.Error("serial interval")
	}
}

// ExampleNewScheduler demonstrates the documented flow: pick a workload and
// a secure design, schedule with the full three-step engine, and inspect
// totals. (Compiled, not executed: a full run takes seconds.)
func ExampleNewScheduler() {
	net := secureloop.MobileNetV2()
	spec := secureloop.BaseArch()
	crypto := secureloop.CryptoConfig{
		Engine:           secureloop.ParallelEngine(),
		CountPerDatatype: 1,
	}
	s := secureloop.NewScheduler(spec, crypto)
	res, err := s.ScheduleNetwork(net, secureloop.CryptOptCross)
	if err != nil {
		panic(err)
	}
	_ = res.Total.Cycles              // latency
	_ = res.Traffic.Total()           // authentication overhead bits
	_ = res.Layers[0].Mapping         // chosen loopnest
	_ = res.Layers[0].OfmapAssignment // chosen AuthBlock regime
}
