package store

import (
	"testing"
)

// TestStringFieldsDoNotAlias pins the injectivity property the length
// prefix exists for: ("ab","c") and ("a","bc") must encode differently.
func TestStringFieldsDoNotAlias(t *testing.T) {
	a := NewEnc().String("ab").String("c").Key()
	b := NewEnc().String("a").String("bc").Key()
	if a == b {
		t.Fatal("adjacent string fields alias")
	}
}

func TestDecRejectsWrongVersion(t *testing.T) {
	e := NewEnc().Int(1)
	raw := append([]byte(nil), e.Encoding()...)
	raw[0] = Version + 1
	if _, err := NewDec(raw); err == nil {
		t.Fatal("wrong version accepted")
	}
	if _, err := NewDec(nil); err == nil {
		t.Fatal("empty encoding accepted")
	}
}

func TestDecRejectsTrailingAndTruncated(t *testing.T) {
	e := NewEnc().Int(42).Bool(true)
	d, err := NewDec(e.Encoding())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Int(); err != nil {
		t.Fatal(err)
	}
	if err := d.Done(); err == nil {
		t.Fatal("Done accepted unread trailing field")
	}
	// Truncated stream: cut mid-field.
	raw := e.Encoding()[:5]
	d2, err := NewDec(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Int(); err == nil {
		t.Fatal("truncated int decoded")
	}
	// Wrong-tag read must not consume, so the right read still works.
	d3, _ := NewDec(e.Encoding())
	if _, err := d3.Bool(); err == nil {
		t.Fatal("tag mismatch accepted")
	}
	if v, err := d3.Int(); err != nil || v != 42 {
		t.Fatalf("recovery after tag mismatch: %d, %v", v, err)
	}
}

// FuzzDecoderRobust feeds arbitrary bytes to the decoder: every accessor
// must fail cleanly (no panic, no unbounded allocation), and tag
// mismatches must not consume input.
func FuzzDecoderRobust(f *testing.F) {
	f.Add([]byte{Version, tagInt, 0, 0, 0, 0, 0, 0, 0, 42})
	f.Add([]byte{Version, tagString, 0xFF, 0xFF, 0xFF, 0xFF, 'x'})
	f.Add([]byte{Version})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := NewDec(raw)
		if err != nil {
			return
		}
		for i := 0; i < len(raw)+2; i++ {
			if _, err := d.Int(); err == nil {
				continue
			}
			if _, err := d.Float(); err == nil {
				continue
			}
			if _, err := d.Bool(); err == nil {
				continue
			}
			if _, err := d.String(); err == nil {
				continue
			}
			if _, err := d.Bytes(); err == nil {
				continue
			}
			break
		}
		_ = d.Done()
	})
}
