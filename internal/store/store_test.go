package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testKey(i int) Key {
	return NewEnc().String("test").Int(int64(i)).Key()
}

func testVal(i int) []byte {
	return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 20+i%7)
}

func openT(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.Put(KindMapper, testKey(i), testVal(i))
	}
	for i := 0; i < 10; i++ {
		got, ok := s.Get(testKey(i))
		if !ok {
			t.Fatalf("key %d: miss", i)
		}
		if !bytes.Equal(got, testVal(i)) {
			t.Fatalf("key %d: value mismatch", i)
		}
	}
	if _, ok := s.Get(testKey(99)); ok {
		t.Fatalf("absent key: hit")
	}
	st := s.Stats()
	if st.Puts != 10 || st.Hits != 10 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 10 puts / 10 hits / 1 miss", st)
	}
}

func TestGetReturnsPrivateCopy(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	defer s.Close()
	s.Put(KindMapper, testKey(1), []byte{1, 2, 3})
	got, ok := s.Get(testKey(1))
	if !ok {
		t.Fatal("miss")
	}
	got[0] = 0xFF
	again, _ := s.Get(testKey(1))
	if again[0] != 1 {
		t.Fatal("Get result aliases store memory")
	}
}

func TestOverwriteLatestWins(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.Put(KindMapper, testKey(1), []byte("old"))
	s.Put(KindMapper, testKey(1), []byte("new"))
	s.Flush()
	if got, ok := s.Get(testKey(1)); !ok || string(got) != "new" {
		t.Fatalf("got %q, %v; want new", got, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := openT(t, dir, Options{})
	defer s2.Close()
	if got, ok := s2.Get(testKey(1)); !ok || string(got) != "new" {
		t.Fatalf("after reopen: got %q, %v; want new", got, ok)
	}
}

func TestReopenPersists(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < 25; i++ {
		s.Put(KindAuthBlock, testKey(i), testVal(i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := openT(t, dir, Options{})
	defer s2.Close()
	for i := 0; i < 25; i++ {
		got, ok := s2.Get(testKey(i))
		if !ok || !bytes.Equal(got, testVal(i)) {
			t.Fatalf("key %d lost across reopen", i)
		}
	}
	st := s2.Stats()
	if st.Entries != 25 || st.Corrupt != 0 {
		t.Fatalf("stats after reopen = %+v", st)
	}
}

// lastSegment returns the path of the newest segment file in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	ids, err := listSegments(dir)
	if err != nil || len(ids) == 0 {
		t.Fatalf("listSegments: %v (%d segments)", err, len(ids))
	}
	return segPath(dir, ids[len(ids)-1])
}

func TestCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		s.Put(KindMapper, testKey(i), testVal(i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := lastSegment(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	clean := fi.Size()
	// Simulate a torn append: half a record's worth of garbage at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{0xAB}, 13)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openT(t, dir, Options{})
	defer s2.Close()
	for i := 0; i < 5; i++ {
		if got, ok := s2.Get(testKey(i)); !ok || !bytes.Equal(got, testVal(i)) {
			t.Fatalf("key %d unreadable after torn tail", i)
		}
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}
	fi, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != clean {
		t.Fatalf("tail not truncated: size %d, want %d", fi.Size(), clean)
	}
}

func TestTornRecordDropped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < 3; i++ {
		s.Put(KindMapper, testKey(i), testVal(i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Flip one byte inside the last record's value region.
	path := lastSegment(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Options{})
	defer s2.Close()
	for i := 0; i < 2; i++ {
		if got, ok := s2.Get(testKey(i)); !ok || !bytes.Equal(got, testVal(i)) {
			t.Fatalf("intact key %d unreadable", i)
		}
	}
	if _, ok := s2.Get(testKey(2)); ok {
		t.Fatal("CRC-invalid record served")
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}
}

func TestCorruptLengthFieldBounded(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.Put(KindMapper, testKey(0), testVal(0))
	s.Put(KindMapper, testKey(1), testVal(1))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Overwrite the second record's length field with a huge value: the
	// scanner must reject it (bounds + sanity cap), not allocate wildly.
	path := lastSegment(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec1 := headerSize + payloadMin + len(testVal(0))
	raw[rec1+4] = 0xFF
	raw[rec1+5] = 0xFF
	raw[rec1+6] = 0xFF
	raw[rec1+7] = 0x7F
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Options{})
	defer s2.Close()
	if got, ok := s2.Get(testKey(0)); !ok || !bytes.Equal(got, testVal(0)) {
		t.Fatal("intact first record unreadable")
	}
	if _, ok := s2.Get(testKey(1)); ok {
		t.Fatal("record behind corrupt length served")
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}
}

func TestReadTimeCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	defer s.Close()
	s.Put(KindMapper, testKey(7), testVal(7))
	s.Flush() // drain pending so Get goes to disk
	// Flip a byte behind the store's back while it is open.
	path := lastSegment(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testKey(7)); ok {
		t.Fatal("corrupt record served at read time")
	}
	st := s.Stats()
	if st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}
	// The bad entry is dropped: the next lookup is a plain miss.
	if _, ok := s.Get(testKey(7)); ok {
		t.Fatal("dropped entry resurrected")
	}
}

func TestEvictionByByteBudget(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{MaxBytes: 2048, SegmentBytes: 512})
	const n = 60
	for i := 0; i < n; i++ {
		s.Put(KindMapper, testKey(i), testVal(i))
	}
	s.Flush()
	st := s.Stats()
	if st.EvictedSegments == 0 || st.EvictedBytes == 0 {
		t.Fatalf("no eviction under budget pressure: %+v", st)
	}
	if st.Bytes > 2048+512 {
		t.Fatalf("log size %d far exceeds budget", st.Bytes)
	}
	// The newest record must have survived; the oldest must be gone.
	if _, ok := s.Get(testKey(n - 1)); !ok {
		t.Fatal("newest record evicted")
	}
	if _, ok := s.Get(testKey(0)); ok {
		t.Fatal("oldest record survived a full-budget eviction")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Reopen under the same budget: index rebuild honours what is on disk.
	s2 := openT(t, dir, Options{MaxBytes: 2048, SegmentBytes: 512})
	defer s2.Close()
	if _, ok := s2.Get(testKey(n - 1)); !ok {
		t.Fatal("newest record lost across reopen")
	}
}

// TestCompactLeftoverTmpIgnored: an earlier version compacted the log
// through a temp file and an atomic rename, so a directory it crashed in
// may hold a stray .tmp segment. Open ignores it and removes it.
func TestCompactLeftoverTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.Put(KindMapper, testKey(1), testVal(1))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A stray .tmp file next to the log, as a crash mid-compaction left it.
	tmp := filepath.Join(dir, segPrefix+"00000000000000ff"+segSuffix+tmpSuffix)
	if err := os.WriteFile(tmp, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, Options{})
	defer s2.Close()
	if _, ok := s2.Get(testKey(1)); !ok {
		t.Fatal("record lost")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("leftover tmp file not cleaned up")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := openT(t, t.TempDir(), Options{SegmentBytes: 4096})
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := g*100 + i
				s.Put(KindMapper, testKey(k), testVal(k%251))
				if got, ok := s.Get(testKey(k)); !ok || !bytes.Equal(got, testVal(k%251)) {
					t.Errorf("goroutine %d: key %d wrong", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Entries != 400 {
		t.Fatalf("Entries = %d, want 400", st.Entries)
	}
}

func TestCloseIdempotentAndPutAfterClose(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.Put(KindMapper, testKey(1), testVal(1))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	s.Put(KindMapper, testKey(2), testVal(2)) // must not panic
	s.Flush()                                 // must not hang
	if _, ok := s.Get(testKey(1)); ok {
		t.Fatal("Get served from closed store")
	}
}

func TestSegmentRotation(t *testing.T) {
	s := openT(t, t.TempDir(), Options{SegmentBytes: 256})
	defer s.Close()
	for i := 0; i < 20; i++ {
		s.Put(KindMapper, testKey(i), testVal(i))
	}
	s.Flush()
	if st := s.Stats(); st.Segments < 2 {
		t.Fatalf("Segments = %d, want rotation past 1", st.Segments)
	}
	for i := 0; i < 20; i++ {
		if _, ok := s.Get(testKey(i)); !ok {
			t.Fatalf("key %d lost across rotation", i)
		}
	}
}

func TestStatsString(t *testing.T) {
	// Keep fmt in the import set honest and pin the snapshot shape.
	st := Stats{Hits: 3, Misses: 1, Puts: 4}
	if s := fmt.Sprintf("%+v", st); s == "" {
		t.Fatal("unprintable stats")
	}
}
