package httpapi_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"secureloop/internal/service"
	"secureloop/internal/service/httpapi"
)

// TestNegativeFieldsRejected sets every numeric field of every wire request
// struct to -1 in turn and expects HTTP 400 with an error that names the
// field by its JSON path. The table is built by reflection, so a new field
// is covered without editing the test. The consumer's window offsets off_h
// and off_w are signed, the one exception: -1 there is a valid request.
func TestNegativeFieldsRejected(t *testing.T) {
	srv := httptest.NewServer(httpapi.NewHandler(service.New(service.Config{}), httpapi.Options{}))
	defer srv.Close()
	signed := map[string]bool{"consumer.off_h": true, "consumer.off_w": true}
	alexnet := json.RawMessage(`"alexnet"`)
	for _, b := range []struct {
		path string
		base func() any
	}{
		{"/v1/schedule", func() any {
			return &service.ScheduleWire{Network: alexnet,
				Arch: &service.ArchWire{}, Crypto: &service.CryptoWire{}, Mapper: &service.MapperWire{}}
		}},
		{"/v1/sweep", func() any {
			return &service.SweepWire{Network: alexnet,
				Specs: []service.ArchWire{{}}, Cryptos: []service.CryptoWire{{}}, Mapper: &service.MapperWire{}}
		}},
		{"/v1/authblock", func() any {
			return &service.AuthBlockWire{
				Producer: service.ProducerWire{C: 4, H: 8, W: 8, TileC: 4, TileH: 4, TileW: 4, WritesPerTile: 1},
				Consumer: service.ConsumerWire{TileC: 4, WinH: 4, WinW: 4, StepH: 4, StepW: 4,
					CountC: 1, CountH: 2, CountW: 2, FetchesPerTile: 1},
			}
		}},
	} {
		for i := range numericFields(reflect.ValueOf(b.base()), "") {
			w := b.base()
			f := numericFields(reflect.ValueOf(w), "")[i]
			if f.v.CanInt() {
				f.v.SetInt(-1)
			} else {
				f.v.SetFloat(-1)
			}
			body, err := json.Marshal(w)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(srv.URL+b.path, "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case signed[f.path]:
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s %s = -1: HTTP %d (%s), want 200: the field is signed", b.path, f.path, resp.StatusCode, msg)
				}
			case resp.StatusCode != http.StatusBadRequest:
				t.Errorf("%s %s = -1: HTTP %d (%s), want 400", b.path, f.path, resp.StatusCode, msg)
			case !strings.Contains(string(msg), f.path):
				t.Errorf("%s %s = -1: the error %s does not name the field", b.path, f.path, msg)
			}
		}
	}
}

// numericField is one numeric leaf of a wire value and its JSON path.
type numericField struct {
	path string
	v    reflect.Value
}

// numericFields lists the numeric leaves of v in field order, walking
// structs and non-nil pointers and slices of them.
func numericFields(v reflect.Value, path string) []numericField {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			return numericFields(v.Elem(), path)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Struct {
			var out []numericField
			for i := range v.Len() {
				out = append(out, numericFields(v.Index(i), fmt.Sprintf("%s[%d]", path, i))...)
			}
			return out
		}
	case reflect.Struct:
		var out []numericField
		for i := range v.NumField() {
			name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			if path != "" {
				name = path + "." + name
			}
			out = append(out, numericFields(v.Field(i), name)...)
		}
		return out
	case reflect.Int, reflect.Int64, reflect.Float64:
		return []numericField{{path, v}}
	}
	return nil
}
