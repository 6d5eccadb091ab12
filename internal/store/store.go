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
	headerSize = 8
	payloadMin = 1 + KeySize
	maxPayload = 64 << 20 // sanity cap: a corrupt length field must not drive a huge allocation
	segPrefix  = "seg-"
	segSuffix  = ".log"
	tmpSuffix  = ".tmp"
	defaultMax = 1 << 30 // 1 GiB byte budget
	defaultSeg = 8 << 20 // 8 MiB rotation threshold
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
	Hits            int64 // Get found a valid record
	Misses          int64 // Get found nothing
	Puts            int64 // Put calls accepted
	Corrupt         int64 // CRC/format failures detected at open or read time
	EvictedSegments int64 // whole segments dropped by the byte budget
	EvictedBytes    int64 // bytes reclaimed by eviction
	Errors          int64 // I/O failures (write or read) — records dropped, store kept serving
	Entries         int   // live keys in the index
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
	size int64 // set by Open, advanced by Put under mu
}

// Store is a disk-backed, content-addressed result store: an append-only
// log of CRC-checked records across numbered segment files, with an
// in-memory index rebuilt on open. Put appends and indexes under one lock
// before it returns; reads are CRC-verified; corruption is counted and
// dropped, never fatal. All methods are safe for concurrent use.
type Store struct {
	dir string
	opt Options

	mu         sync.RWMutex
	index      map[Key]ref         // guarded by mu
	segs       map[uint64]*segment // guarded by mu
	segIDs     []uint64            // guarded by mu (ascending)
	active     *segment            // guarded by mu (the newest segment)
	totalBytes int64               // guarded by mu
	closed     bool                // guarded by mu (true once Close has run)

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
	ids, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		ids = []uint64{1} // a fresh store: openSegment creates the first segment
	}
	index := make(map[Key]ref)
	segs := make(map[uint64]*segment, len(ids))
	var active *segment
	var total, corrupt int64
	// Segments scan in ascending id order and records in file order, so the
	// latest record for a key always wins.
	for i, id := range ids {
		seg, err := openSegment(dir, id)
		if err != nil {
			closeSegments(segs)
			return nil, err
		}
		segs[id] = seg
		if end := scanSegment(seg, index); end < seg.size {
			corrupt++
			if i == len(ids)-1 {
				// Torn tail on the segment we are about to append to: cut it
				// off so new records land on a valid boundary. On earlier
				// segments the bytes past the bad record are unreachable but
				// harmless — the index simply never points there.
				if err := seg.f.Truncate(end); err != nil {
					closeSegments(segs)
					return nil, fmt.Errorf("store: truncate corrupt tail: %w", err)
				}
				seg.size = end
			}
		}
		total += seg.size
		active = seg
	}
	s := &Store{dir: dir, opt: opt, index: index, segs: segs, segIDs: ids, active: active, totalBytes: total}
	s.corrupt.Store(corrupt)
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

// openSegment opens segment id for reading and appending, creating it if
// it does not exist.
func openSegment(dir string, id uint64) (*segment, error) {
	path := segPath(dir, id)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: stat segment: %w", err)
	}
	return &segment{id: id, path: path, f: f, size: fi.Size()}, nil
}

// scanSegment replays seg's valid records into index in file order and
// returns the offset just past the last one: seg.size when the whole
// segment is valid, less when a record fails validation.
func scanSegment(seg *segment, index map[Key]ref) int64 {
	var off int64
	var hdr [headerSize]byte
	for seg.size-off >= headerSize {
		if _, err := seg.f.ReadAt(hdr[:], off); err != nil {
			break
		}
		plen := binary.LittleEndian.Uint32(hdr[4:])
		if plen < payloadMin || plen > maxPayload || off+headerSize+int64(plen) > seg.size {
			break
		}
		payload := make([]byte, plen)
		if _, err := seg.f.ReadAt(payload, off+headerSize); err != nil {
			break
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[:4]) {
			break
		}
		var key Key
		copy(key[:], payload[1:1+KeySize])
		index[key] = ref{seg: seg.id, off: off, plen: plen}
		off += headerSize + int64(plen)
	}
	return off
}

func closeSegments(segs map[uint64]*segment) {
	for _, seg := range segs {
		seg.f.Close()
	}
}

// Get returns the stored value for key, or (nil, false). The returned
// slice is a private copy. Values are CRC-verified on every read; a
// record that fails verification is dropped from the index, counted, and
// reported as a miss.
func (s *Store) Get(key Key) ([]byte, bool) {
	s.mu.RLock()
	r, ok := s.index[key]
	if !ok || s.closed {
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

// Has reports whether a record for key is indexed without reading its
// value. It is a peek, not a read: no CRC verification, no hit/miss
// counting — a later Get can still miss if the record turns out corrupt.
// The DSE coordinator uses it to label store-answered evaluations in
// progress output.
func (s *Store) Has(key Key) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[key]
	return ok && !s.closed
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

// Put appends val under key to the active segment and indexes it before it
// returns, so a returned Put is visible to Get and, being in the OS page
// cache, survives a crash of the process. It does not fsync: rotation,
// Flush and Close do. A failed append drops the record and counts an
// error. Put on a closed store is a no-op.
func (s *Store) Put(kind byte, key Key, val []byte) {
	buf := encodeRecord(kind, key, val)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.puts.Add(1)
	seg := s.active
	if _, err := seg.f.WriteAt(buf, seg.size); err != nil {
		// Disk trouble: drop the record and keep serving from what we have.
		s.ioErrors.Add(1)
		return
	}
	s.index[key] = ref{seg: seg.id, off: seg.size, plen: uint32(len(buf) - headerSize)}
	seg.size += int64(len(buf))
	s.totalBytes += int64(len(buf))
	if seg.size >= s.opt.SegmentBytes {
		// Rotate: make the full segment durable, then append to a fresh
		// one. If it cannot be created, keep appending to the current
		// segment rather than losing data.
		if err := seg.f.Sync(); err != nil {
			s.ioErrors.Add(1)
		}
		if next, err := openSegment(s.dir, seg.id+1); err != nil {
			s.ioErrors.Add(1)
		} else {
			s.segs[next.id] = next
			s.segIDs = append(s.segIDs, next.id)
			s.active = next
		}
	}
	// Evict whole segments, oldest first, while the log exceeds the byte
	// budget. The active segment is never evicted.
	for s.totalBytes > s.opt.MaxBytes && len(s.segIDs) > 1 {
		victim := s.segs[s.segIDs[0]]
		s.segIDs = s.segIDs[1:]
		delete(s.segs, victim.id)
		for k, r := range s.index {
			if r.seg == victim.id {
				delete(s.index, k)
			}
		}
		victim.f.Close()
		if err := os.Remove(victim.path); err != nil {
			s.ioErrors.Add(1)
		}
		s.totalBytes -= victim.size
		s.evictSegs.Add(1)
		s.evictBytes.Add(victim.size)
	}
}

// Flush fsyncs the active segment. Rotation fsyncs every earlier segment,
// so when Flush returns every Put that returned before the call is
// durably in the log.
func (s *Store) Flush() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return
	}
	if err := s.active.f.Sync(); err != nil {
		s.ioErrors.Add(1)
	}
}

// Close fsyncs and closes every segment file. Safe to call twice.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
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
	entries := len(s.index)
	segments := len(s.segIDs)
	bytes := s.totalBytes
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
		Bytes:           bytes,
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
