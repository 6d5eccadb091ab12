// Package store is the disk-persistent, content-addressed result tier that
// sits beneath the process-wide in-memory caches (mapper search cache,
// authblock optimal memo, the scheduler's whole-network results). A request
// key is the SHA-256 of a canonical binary encoding of everything that
// determines the result — layer shape, architecture, crypto configuration,
// search options, k — so identical requests from any process, any run, any
// machine resolve to the same record, and a warm sweep turns recomputation
// into index lookups (ROADMAP items 1 and 4 both plug into this substrate).
//
// The file is split in two:
//
//   - key.go: the canonical encoder/decoder. Encodings are deterministic
//     (explicit field order, fixed-width big-endian values, one tag byte per
//     field, a leading format-version byte so any change to the encoding
//     invalidates every old key at once) and injective (distinct field
//     sequences never collide before hashing). FuzzKeyCodec holds the
//     round-trip and determinism obligations.
//   - store.go: the append-only CRC-checked segment log with its rebuildable
//     in-memory index.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
)

// Version is the canonical-encoding format version, the first byte of every
// encoding. Bump it whenever the meaning of any client's field sequence
// changes: every previously persisted key then misses cleanly instead of
// resolving to a stale result.
//
// Version 2 retires the mapper-tier and network-tier records written before
// exhaustive-mode searches became exact on layers whose stride exceeds the
// filter extent (DESIGN.md §13). Version 3 retires those written before the
// mapper's top-k signature held tile extents and spatial factors in full:
// distinct tilings of a layer with an extent of 2^16 or more could share one
// top-k slot, so their stored answers may differ from today's.
const Version byte = 3

// Key is a content address: the SHA-256 of a canonical encoding.
type Key [sha256.Size]byte

// Field tags. Each encoded field is one tag byte followed by a fixed-width
// (or length-prefixed) big-endian payload, so the byte stream parses
// unambiguously and two different field sequences can never encode to the
// same bytes.
const (
	tagInt    byte = 0x01 // 8-byte two's-complement big-endian
	tagFloat  byte = 0x02 // 8-byte IEEE-754 bits, big-endian
	tagBool   byte = 0x03 // 1 byte, 0 or 1
	tagString byte = 0x04 // 4-byte length + raw bytes
	tagBytes  byte = 0x05 // 4-byte length + raw bytes
)

// Enc builds a canonical encoding field by field. The zero value is not
// ready to use; call NewEnc so the version byte leads the stream.
type Enc struct {
	b []byte
}

// NewEnc returns an encoder primed with the format version byte.
func NewEnc() *Enc {
	return &Enc{b: []byte{Version}}
}

// Int appends a signed integer field.
func (e *Enc) Int(v int64) *Enc {
	var p [9]byte
	p[0] = tagInt
	binary.BigEndian.PutUint64(p[1:], uint64(v))
	e.b = append(e.b, p[:]...)
	return e
}

// Float appends a float field by its exact IEEE-754 bits.
func (e *Enc) Float(v float64) *Enc {
	var p [9]byte
	p[0] = tagFloat
	binary.BigEndian.PutUint64(p[1:], math.Float64bits(v))
	e.b = append(e.b, p[:]...)
	return e
}

// Bool appends a boolean field.
func (e *Enc) Bool(v bool) *Enc {
	x := byte(0)
	if v {
		x = 1
	}
	e.b = append(e.b, tagBool, x)
	return e
}

// String appends a string field (length-prefixed, so adjacent strings can
// never alias each other's bytes).
func (e *Enc) String(s string) *Enc {
	var p [5]byte
	p[0] = tagString
	binary.BigEndian.PutUint32(p[1:], uint32(len(s)))
	e.b = append(e.b, p[:]...)
	e.b = append(e.b, s...)
	return e
}

// Bytes appends a raw byte-slice field.
func (e *Enc) Bytes(v []byte) *Enc {
	var p [5]byte
	p[0] = tagBytes
	binary.BigEndian.PutUint32(p[1:], uint32(len(v)))
	e.b = append(e.b, p[:]...)
	e.b = append(e.b, v...)
	return e
}

// Encoding returns the canonical byte stream built so far. Callers must not
// mutate it.
func (e *Enc) Encoding() []byte { return e.b }

// Key hashes the encoding into its content address.
func (e *Enc) Key() Key { return sha256.Sum256(e.b) }

// Dec decodes a canonical encoding produced by Enc. Every accessor returns
// an error on tag or bounds mismatch instead of panicking, so a corrupt or
// version-skewed record is a clean miss, never a crash.
type Dec struct {
	b   []byte
	off int
}

// NewDec validates the version byte and returns a decoder positioned at the
// first field.
func NewDec(b []byte) (*Dec, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("store: empty encoding")
	}
	if b[0] != Version {
		return nil, fmt.Errorf("store: encoding version %d, want %d", b[0], Version)
	}
	return &Dec{b: b, off: 1}, nil
}

func (d *Dec) tag(want byte) error {
	if d.off >= len(d.b) {
		return fmt.Errorf("store: truncated encoding at offset %d", d.off)
	}
	if got := d.b[d.off]; got != want {
		return fmt.Errorf("store: field tag %#x at offset %d, want %#x", got, d.off, want)
	}
	d.off++
	return nil
}

func (d *Dec) fixed(n int) ([]byte, error) {
	if d.off+n > len(d.b) {
		return nil, fmt.Errorf("store: truncated field at offset %d", d.off)
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p, nil
}

// Int decodes the next field as a signed integer.
func (d *Dec) Int() (int64, error) {
	if err := d.tag(tagInt); err != nil {
		return 0, err
	}
	p, err := d.fixed(8)
	if err != nil {
		return 0, err
	}
	return int64(binary.BigEndian.Uint64(p)), nil
}

// Float decodes the next field as a float.
func (d *Dec) Float() (float64, error) {
	if err := d.tag(tagFloat); err != nil {
		return 0, err
	}
	p, err := d.fixed(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.BigEndian.Uint64(p)), nil
}

// Bool decodes the next field as a boolean.
func (d *Dec) Bool() (bool, error) {
	if err := d.tag(tagBool); err != nil {
		return false, err
	}
	p, err := d.fixed(1)
	if err != nil {
		return false, err
	}
	switch p[0] {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, fmt.Errorf("store: bool byte %#x", p[0])
}

// String decodes the next field as a string.
func (d *Dec) String() (string, error) {
	if err := d.tag(tagString); err != nil {
		return "", err
	}
	p, err := d.fixed(4)
	if err != nil {
		return "", err
	}
	n := int(binary.BigEndian.Uint32(p))
	v, err := d.fixed(n)
	if err != nil {
		return "", err
	}
	return string(v), nil
}

// Bytes decodes the next field as a byte slice (copied, so the decoder's
// backing buffer can be reused).
func (d *Dec) Bytes() ([]byte, error) {
	if err := d.tag(tagBytes); err != nil {
		return nil, err
	}
	p, err := d.fixed(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(p))
	v, err := d.fixed(n)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), v...), nil
}

// Done reports whether every encoded field has been consumed; decoding a
// record with trailing bytes is a format error (a sign the writer and
// reader disagree about the field sequence).
func (d *Dec) Done() error {
	if d.off != len(d.b) {
		return fmt.Errorf("store: %d trailing bytes after last field", len(d.b)-d.off)
	}
	return nil
}
