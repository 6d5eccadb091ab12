package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Record kinds, stored in each record's payload so the log is
// self-describing when inspected offline. The store itself treats them as
// opaque; the key alone addresses a record.
const (
	KindMapper    byte = 1 // mapper top-k candidates
	KindAuthBlock byte = 2 // authblock Optimal choice
	KindNetwork   byte = 3 // full core network schedule
)

// On-disk record layout:
//
//	crc32c(payload)  4 bytes, little-endian
//	len(payload)     4 bytes, little-endian
//	payload          kind (1 byte) | key (32 bytes) | value
//
// The CRC covers the whole payload, so a torn write, a bit flip in the
// value, or a garbage length field all fail validation identically: the
// record (and, in the tail case, everything after it) is dropped and
// counted, never returned.
const (
	headerSize  = 8
	payloadMin  = 1 + KeySize
	maxPayload  = 64 << 20 // sanity cap: a corrupt length field must not drive a huge allocation
	segPrefix   = "seg-"
	segSuffix   = ".log"
	tmpSuffix   = ".tmp"
	defaultMax  = 1 << 30 // 1 GiB byte budget
	defaultSeg  = 8 << 20 // 8 MiB rotation threshold
	opQueueSize = 256
)

// KeySize is the size of a content address in bytes.
const KeySize = 32

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a Store. The zero value means a 1 GiB byte budget with
// 8 MiB segments.
type Options struct {
	// MaxBytes is the total on-disk byte budget. When the log exceeds it,
	// whole segments are evicted oldest-first (the active segment is never
	// evicted). <= 0 means the 1 GiB default.
	MaxBytes int64
	// SegmentBytes is the rotation threshold: once the active segment
	// reaches it, appends move to a fresh segment. <= 0 means 8 MiB.
	SegmentBytes int64
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Hits            int64 // Get found a record (pending or on disk)
	Misses          int64 // Get found nothing
	Puts            int64 // Put calls accepted
	Corrupt         int64 // CRC/format failures detected at open or read time
	EvictedSegments int64 // whole segments dropped by the byte budget
	EvictedBytes    int64 // bytes reclaimed by eviction
	Errors          int64 // I/O failures (write or read) — records dropped, store kept serving
	Entries         int   // live keys (index + unflushed pending)
	Segments        int   // on-disk segment files
	Bytes           int64 // on-disk log size
}

type ref struct {
	seg  uint64 // segment id
	off  int64  // record start offset within the segment
	plen uint32 // payload length
}

type segment struct {
	id   uint64
	path string
	f    *os.File
	size int64 // written by the writer goroutine / Open only
}

type pendingVal struct {
	val []byte
	seq uint64
}

type op struct {
	put  bool
	kind byte
	key  Key
	val  []byte
	seq  uint64
	ack  chan struct{} // flush barrier: writer fsyncs then closes
}

// Store is a disk-backed, content-addressed result store: an append-only
// log of CRC-checked records across numbered segment files, with an
// in-memory index rebuilt on open. Writes are write-behind (a single
// writer goroutine appends; Get sees unflushed puts via the pending map),
// reads are CRC-verified, corruption is counted and dropped, never fatal.
// All methods are safe for concurrent use.
type Store struct {
	dir string
	opt Options

	mu      sync.RWMutex
	index   map[Key]ref         // guarded by mu
	pending map[Key]pendingVal  // guarded by mu
	segs    map[uint64]*segment // guarded by mu
	segIDs  []uint64            // guarded by mu (ascending)
	active  *segment            // guarded by mu (pointer; size is writer-only)
	shut    bool                // guarded by mu (true once Close has run)

	sendMu sync.Mutex
	closed bool    // guarded by sendMu (no further ops may be enqueued)
	seq    uint64  // guarded by sendMu
	ops    chan op // enqueue guarded by sendMu; writer goroutine drains
	wg     sync.WaitGroup

	totalBytes atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	puts       atomic.Int64
	corrupt    atomic.Int64
	evictSegs  atomic.Int64
	evictBytes atomic.Int64
	ioErrors   atomic.Int64
}

// Open opens (or creates) the store rooted at dir and rebuilds the index
// by scanning every segment. Records that fail CRC or format validation
// are counted and skipped; a corrupt tail on the newest segment is
// physically truncated so the log is clean for appending. Corruption is
// never an open failure — only real I/O errors are.
func Open(dir string, opt Options) (*Store, error) {
	if opt.MaxBytes <= 0 {
		opt.MaxBytes = defaultMax
	}
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = defaultSeg
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{
		dir:     dir,
		opt:     opt,
		index:   make(map[Key]ref),
		pending: make(map[Key]pendingVal),
		segs:    make(map[uint64]*segment),
		ops:     make(chan op, opQueueSize),
	}
	ids, err := listSegments(dir)
	if err != nil {
		s.closeFiles()
		return nil, err
	}
	for i, id := range ids {
		last := i == len(ids)-1
		if err := s.scanSegment(id, last); err != nil {
			s.closeFiles()
			return nil, err
		}
	}
	s.mu.Lock()
	empty := len(s.segIDs) == 0
	s.mu.Unlock()
	if empty {
		if err := s.addSegment(1); err != nil {
			s.closeFiles()
			return nil, err
		}
	}
	s.mu.Lock()
	s.active = s.segs[s.segIDs[len(s.segIDs)-1]]
	s.mu.Unlock()
	s.wg.Add(1)
	go s.run()
	return s, nil
}

func segPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, id, segSuffix))
}

func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: list %s: %w", dir, err)
	}
	var ids []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) {
			continue
		}
		if strings.HasSuffix(name, tmpSuffix) {
			// Left behind by the compaction of an earlier version, which
			// crashed before its atomic rename: the old segments are still
			// intact, so the temp file is garbage by construction.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, segSuffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		id, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// scanSegment opens one segment, replays its records into the index, and —
// if it is the newest segment — truncates any corrupt tail so appends
// resume on a clean boundary. Segments scan in ascending id order and
// records in file order, so the latest record for a key always wins.
func (s *Store) scanSegment(id uint64, last bool) error {
	// Open-time only (no writer goroutine yet), but the index and segment
	// tables are mu-guarded, so hold mu for the replay; it is uncontended.
	s.mu.Lock()
	defer s.mu.Unlock()
	path := segPath(s.dir, id)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: stat segment: %w", err)
	}
	size := fi.Size()
	seg := &segment{id: id, path: path, f: f, size: size}

	var off int64
	var hdr [headerSize]byte
	clean := true
	for off < size {
		if size-off < headerSize {
			clean = false
			break
		}
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			clean = false
			break
		}
		plen := binary.LittleEndian.Uint32(hdr[4:])
		if plen < payloadMin || plen > maxPayload || off+headerSize+int64(plen) > size {
			clean = false
			break
		}
		payload := make([]byte, plen)
		if _, err := f.ReadAt(payload, off+headerSize); err != nil {
			clean = false
			break
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[:4]) {
			clean = false
			break
		}
		var key Key
		copy(key[:], payload[1:1+KeySize])
		s.index[key] = ref{seg: id, off: off, plen: plen}
		off += headerSize + int64(plen)
	}
	if !clean {
		s.corrupt.Add(1)
		if last {
			// Torn tail on the segment we are about to append to: cut it
			// off so new records land on a valid boundary. On earlier
			// segments the bytes past the bad record are unreachable but
			// harmless — the index simply never points there.
			if err := f.Truncate(off); err != nil {
				f.Close()
				return fmt.Errorf("store: truncate corrupt tail: %w", err)
			}
			seg.size = off
		}
	}
	s.segs[id] = seg
	s.segIDs = append(s.segIDs, id)
	s.totalBytes.Add(seg.size)
	return nil
}

// addSegment creates a fresh segment with the given id and makes it active.
// Called from Open and the writer goroutine only.
func (s *Store) addSegment(id uint64) error {
	path := segPath(s.dir, id)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	seg := &segment{id: id, path: path, f: f}
	s.mu.Lock()
	s.segs[id] = seg
	s.segIDs = append(s.segIDs, id)
	s.active = seg
	s.mu.Unlock()
	return nil
}

func (s *Store) closeFiles() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		seg.f.Close()
	}
}

// Get returns the stored value for key, or (nil, false). The returned
// slice is a private copy. Values are CRC-verified on every read; a
// record that fails verification is dropped from the index, counted, and
// reported as a miss.
func (s *Store) Get(key Key) ([]byte, bool) {
	s.mu.RLock()
	if s.shut {
		s.mu.RUnlock()
		s.misses.Add(1)
		return nil, false
	}
	if p, ok := s.pending[key]; ok {
		v := append([]byte(nil), p.val...)
		s.mu.RUnlock()
		s.hits.Add(1)
		return v, true
	}
	r, ok := s.index[key]
	if !ok {
		s.mu.RUnlock()
		s.misses.Add(1)
		return nil, false
	}
	seg := s.segs[r.seg]
	buf := make([]byte, headerSize+int(r.plen))
	_, err := seg.f.ReadAt(buf, r.off)
	s.mu.RUnlock()
	if err != nil {
		s.ioErrors.Add(1)
		s.dropEntry(key, r)
		return nil, false
	}
	payload := buf[headerSize:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[:4]) ||
		!keyMatches(payload, key) {
		s.corrupt.Add(1)
		s.dropEntry(key, r)
		return nil, false
	}
	s.hits.Add(1)
	return append([]byte(nil), payload[1+KeySize:]...), true
}

// Has reports whether a record for key exists (pending or indexed) without
// reading its value. It is a peek, not a read: no CRC verification, no
// hit/miss counting — a later Get can still miss if the record turns out
// corrupt. The DSE coordinator uses it to label store-answered evaluations
// in progress output.
func (s *Store) Has(key Key) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.shut {
		return false
	}
	if _, ok := s.pending[key]; ok {
		return true
	}
	_, ok := s.index[key]
	return ok
}

func keyMatches(payload []byte, key Key) bool {
	var k Key
	copy(k[:], payload[1:1+KeySize])
	return k == key
}

// dropEntry removes a bad index entry (if it still points at the same
// record) and counts the lookup as a miss.
func (s *Store) dropEntry(key Key, r ref) {
	s.mu.Lock()
	if cur, ok := s.index[key]; ok && cur == r {
		delete(s.index, key)
	}
	s.mu.Unlock()
	s.misses.Add(1)
}

// Put records val under key, write-behind: it returns once the value is
// queued and visible to Get, and the writer goroutine appends it to the
// log. Put on a closed store is a no-op.
func (s *Store) Put(kind byte, key Key, val []byte) {
	v := append([]byte(nil), val...)
	s.sendMu.Lock()
	if s.closed {
		s.sendMu.Unlock()
		return
	}
	s.seq++
	seq := s.seq
	s.mu.Lock()
	s.pending[key] = pendingVal{val: v, seq: seq}
	s.mu.Unlock()
	s.puts.Add(1)
	s.ops <- op{put: true, kind: kind, key: key, val: v, seq: seq}
	s.sendMu.Unlock()
}

// Flush blocks until every Put accepted before the call is durably in the
// log (appended and fsynced).
func (s *Store) Flush() {
	ack := make(chan struct{})
	s.sendMu.Lock()
	if s.closed {
		s.sendMu.Unlock()
		return
	}
	s.ops <- op{ack: ack}
	s.sendMu.Unlock()
	<-ack
}

// Close drains pending writes, fsyncs, and closes every segment file.
// Safe to call twice.
func (s *Store) Close() error {
	s.sendMu.Lock()
	if s.closed {
		s.sendMu.Unlock()
		return nil
	}
	s.closed = true
	close(s.ops)
	s.sendMu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shut = true
	var firstErr error
	for _, id := range s.segIDs {
		seg := s.segs[id]
		if err := seg.f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := seg.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	entries := len(s.index) + len(s.pending)
	segments := len(s.segIDs)
	s.mu.RUnlock()
	return Stats{
		Hits:            s.hits.Load(),
		Misses:          s.misses.Load(),
		Puts:            s.puts.Load(),
		Corrupt:         s.corrupt.Load(),
		EvictedSegments: s.evictSegs.Load(),
		EvictedBytes:    s.evictBytes.Load(),
		Errors:          s.ioErrors.Load(),
		Entries:         entries,
		Segments:        segments,
		Bytes:           s.totalBytes.Load(),
	}
}

// run is the writer goroutine: the only place segment files are appended,
// rotated or evicted, so none of those need file-level locks.
func (s *Store) run() {
	defer s.wg.Done()
	for o := range s.ops {
		switch {
		case o.put:
			s.appendRecord(o)
		case o.ack != nil:
			if err := s.activeSeg().f.Sync(); err != nil {
				s.ioErrors.Add(1)
			}
			close(o.ack)
		}
	}
}

func encodeRecord(kind byte, key Key, val []byte) []byte {
	plen := 1 + KeySize + len(val)
	buf := make([]byte, headerSize+plen)
	payload := buf[headerSize:]
	payload[0] = kind
	copy(payload[1:], key[:])
	copy(payload[1+KeySize:], val)
	binary.LittleEndian.PutUint32(buf[:4], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(plen))
	return buf
}

// activeSeg snapshots the active-segment pointer under mu. Only the writer
// goroutine swaps it (rotate), but Stats and Open share mu, so
// even the writer's own reads take the read lock.
func (s *Store) activeSeg() *segment {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.active
}

func (s *Store) appendRecord(o op) {
	seg := s.activeSeg()
	buf := encodeRecord(o.kind, o.key, o.val)
	off := seg.size
	if _, err := seg.f.WriteAt(buf, off); err != nil {
		// Disk trouble: drop the record (the pending entry too, so memory
		// does not grow unboundedly) and keep serving from what we have.
		s.ioErrors.Add(1)
		s.mu.Lock()
		if p, ok := s.pending[o.key]; ok && p.seq == o.seq {
			delete(s.pending, o.key)
		}
		s.mu.Unlock()
		return
	}
	seg.size += int64(len(buf))
	s.totalBytes.Add(int64(len(buf)))
	s.mu.Lock()
	s.index[o.key] = ref{seg: seg.id, off: off, plen: uint32(len(buf) - headerSize)}
	if p, ok := s.pending[o.key]; ok && p.seq == o.seq {
		delete(s.pending, o.key)
	}
	s.mu.Unlock()
	if seg.size >= s.opt.SegmentBytes {
		s.rotate()
	}
	s.evict()
}

func (s *Store) rotate() {
	seg := s.activeSeg()
	if err := seg.f.Sync(); err != nil {
		s.ioErrors.Add(1)
	}
	if err := s.addSegment(seg.id + 1); err != nil {
		// Could not create the next segment: keep appending to the
		// current one rather than losing data.
		s.ioErrors.Add(1)
	}
}

// evict drops whole segments, oldest first, while the log exceeds the byte
// budget. The active segment is never evicted.
func (s *Store) evict() {
	for s.totalBytes.Load() > s.opt.MaxBytes {
		s.mu.Lock()
		if len(s.segIDs) <= 1 {
			s.mu.Unlock()
			return
		}
		victimID := s.segIDs[0]
		victim := s.segs[victimID]
		s.segIDs = s.segIDs[1:]
		delete(s.segs, victimID)
		for k, r := range s.index {
			if r.seg == victimID {
				delete(s.index, k)
			}
		}
		s.mu.Unlock()
		victim.f.Close()
		if err := os.Remove(victim.path); err != nil {
			s.ioErrors.Add(1)
		}
		s.totalBytes.Add(-victim.size)
		s.evictSegs.Add(1)
		s.evictBytes.Add(victim.size)
	}
}
