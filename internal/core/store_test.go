package core

import (
	"context"
	"reflect"
	"testing"

	"secureloop/internal/arch"
	"secureloop/internal/authblock"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/mapper"
	"secureloop/internal/store"
	"secureloop/internal/workload"
)

func storeSched(st *store.Store) *Scheduler {
	s := New(arch.Base(), cryptoengine.Config{Engine: cryptoengine.Parallel(), CountPerDatatype: 1})
	s.Anneal.Iterations = 50
	s.Mapper = mapper.Options{Mode: mapper.Guided}
	s.Store = st
	return s
}

// TestScheduleNetworkStoreRoundTrip pins deep byte-identity through the
// persistent tier: a warm schedule decoded from the store — with every
// in-memory cache dropped in between, the moral equivalent of a fresh
// process — equals the cold schedule in every field, down to each mapping's
// tiling factors and loop permutations.
func TestScheduleNetworkStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	net := workload.AlexNet()

	mapper.ResetCaches()
	authblock.ResetCaches()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := storeSched(st).ScheduleNetworkCtx(context.Background(), net, CryptOptCross)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	mapper.ResetCaches()
	authblock.ResetCaches()
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := storeSched(st2).ScheduleNetworkCtx(context.Background(), net, CryptOptCross)
	if err != nil {
		t.Fatal(err)
	}
	hits := st2.Stats().Hits
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	if hits == 0 {
		t.Error("warm schedule never hit the store")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm schedule differs from cold:\ncold %+v\nwarm %+v", cold.Total, warm.Total)
	}
}

// TestScheduleNetworkStoreCorruptRecordRecomputed pins the fallback
// contract: a store whose network-tier record is unreadable is a miss, not
// an error — the scheduler recomputes and returns the same result.
func TestScheduleNetworkStoreCorruptRecordRecomputed(t *testing.T) {
	net := workload.AlexNet()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := st.Close(); cerr != nil {
			t.Fatal(cerr)
		}
	}()
	s := storeSched(st)
	key := s.persistNetworkKey(net, CryptOptCross)
	// Poison the network tier with bytes no decoder accepts.
	st.Put(store.KindNetwork, key, []byte{0xff, 0xff, 0xff})

	res, err := s.ScheduleNetworkCtx(context.Background(), net, CryptOptCross)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Cycles <= 0 {
		t.Errorf("recomputed schedule has %d cycles", res.Total.Cycles)
	}
}
