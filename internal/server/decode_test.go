package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// referenceDecode is the request decode as the handlers did it before
// the single-pass path: json.Decoder over the whole body.
func referenceDecode(body []byte) (*SolveRequest, error) {
	req := new(SolveRequest)
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(req); err != nil {
		return nil, err
	}
	return req, nil
}

const decodeSeedModel = `{"states":2,"transitions":[{"from":0,"to":1,"rate":2},{"from":1,"to":0,"rate":3}],"rates":[1.5,-0.5],"variances":[0.2,1],"initial":[1,0]}`

// decodeSeeds are request bodies around the canonical and non-canonical
// spec shapes, plus envelope edge cases.
var decodeSeeds = []string{
	`{"model":` + decodeSeedModel + `,"t":1,"order":2}`,
	`{"t":1,"order":2,"model":` + decodeSeedModel + `,"bounds_at":[1,2],"method":"ode","ode":{"method":"rk45"}}`,
	`{"model":` + decodeSeedModel + `,"t":1,"order":2,"method":"simulation","sim":{"seed":3,"reps":100}}`,
	`{"model":{"states":1,"rates":[1],"variances":[0],"initial":[1],"impulses":[]},"t":0.5,"order":1,"timeout_ms":5,"resume_token":"ab"}`,
	`{"model":{"states":2,"transitions":[{"from":1,"to":0,"rate":-0},{"from":0,"to":1,"rate":1E+2}],"rates":[1e-7,1e21],"variances":[5e-324,0.000001],"initial":[1,0]},"t":1,"order":1}`,
	`{"model":{"states":1,"transitions":null,"rates":null,"variances":null,"initial":null,"impulses":null},"t":1,"order":1}`,
	`{"model":{"states":1,"transitions":[],"rates":[],"variances":[],"initial":[]},"t":1,"order":1}`,
	`{"model":{"states":"1"},"t":1,"order":1}`,
	`{"model":{"states":1,"rates":[1],"rates":[2]},"t":1}`,
	`{"model":{"states":2,"transitions":[{"from":1,"to":0,"rate":3}],"transitions":[{"to":1}]},"t":1}`,
	`{"model":{"States":1,"Rates":[1]},"t":1}`,
	`{"model":{"states":1},"t":1}`,
	`{"model":{"states":1},"model":{"rates":[1]},"t":1}`,
	`{"Model":{"states":1},"t":1}`,
	`{"model":{"states":1},"t":1}`,
	`{"model":null,"t":1}`,
	`{"model":{"states":1,"rates":[1e400]},"t":1}`,
	`{"model":{"states":1.5},"t":"x"}`,
	`{"model":{"states":1},"t":1} trailing`,
	`{"model":{"states":1},"t":1}` + "\n\t ",
	`{"compose":[` + decodeSeedModel + `,` + decodeSeedModel + `],"t":1,"order":2}`,
	`{"model":{"states":1},"note":"a \"quoted\" é \\ string","extra":[true,false,null,{"a":[]}],"t":1}`,
	`{"model":{"states":1},"t":01}`,
	`{"model":{"states":1},"t":1,}`,
	`{"model":{"states":1}`,
	`[{"model":{"states":1}}]`,
	``,
	`{}`,
	// Compose bodies: the scanned shape, and each way the scanner must
	// decline to json.Decoder.
	`{"compose":[` + decodeSeedModel + `],"t":1,"order":2}`,
	`{"compose":[],"t":1}`,
	`{"t":0.5,"compose":[` + decodeSeedModel + `, {"states":1,"rates":[-0],"variances":[0],"initial":[1],"impulses":[]} ,{}],"order":1,"bounds_at":[2]}`,
	`{"Compose":[` + decodeSeedModel + `,` + decodeSeedModel + `],"t":1}`,
	`{"compose":[` + decodeSeedModel + `,null],"t":1}`,
	`{"compose":null,"t":1}`,
	`{"model":` + decodeSeedModel + `,"compose":[` + decodeSeedModel + `],"t":1}`,
	`{"compose":[{"states":1},{"st\u0061tes":2}],"t":1}`,
	`{"compose":[{"states":1},{"states":1,"rates":[1e400]}],"t":1}`,
	`{"compose":[` + decodeSeedModel + `],"t":1,"order":2} {"compose":[]}`,
	`{"compose":[{"states":1}],"compose":[{"states":2}],"t":1}`,
	`{"compose":[{"states":1}` + "\t" + `,` + "\n" + `{"states":2}],"t":1}`,
	`{"compose":{"states":1},"t":1}`,
}

// FuzzSolveRequestDecode is the differential check of the request decode
// against plain json.Decoder, for solve and batch bodies: the same
// decoded request — models and compose lists compared with
// reflect.DeepEqual, nil versus empty slices included — and the same
// error, text included, so the same 400s.
func FuzzSolveRequestDecode(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := referenceDecode(body)
		got, err := decodeSolveRequest(body, nil)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("decode error %v, reference error %v: %q", err, wantErr, body)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decode differs:\ngot %#v\nref %#v\nbody %q", got, want, body)
		}
		wantBatch := new(BatchRequest)
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(wantBatch); err != nil {
			wantBatch = nil
			wantErr = err
		} else {
			wantErr = nil
		}
		gotBatch, err := decodeBatchRequest(body, nil)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(gotBatch, wantBatch) {
			t.Fatalf("batch decode %#v, %v; reference %#v, %v: %q", gotBatch, err, wantBatch, wantErr, body)
		}
	})
}

// TestDecodeErrorText checks that bodies outside the single-pass shape
// answer with json.Decoder's 400 and error text, through the handler —
// type errors inside a model and their precedence included.
func TestDecodeErrorText(t *testing.T) {
	s := New(Options{Workers: 1, MaxBodyBytes: 64})
	defer func() { _ = s.Shutdown(context.Background()) }()
	h := s.Handler()
	for _, body := range []string{
		`{"model":{"states":1},"t":"x"}`,
		`{"model":{"states":1,"rates":[1e400]},"t":1}`,
		`{"model":{"states":2,"transitions":[{"from":0,"to":"1"}]},"t":1}`,
		`{"t":"x","model":{"states":"y"}}`,
		`{"compose":[{"states":1},{"states":1.5}],"t":1}`,
		`{"model":{"states":1},"t":1,}`,
		`{"model":`,
		``,
		`{"model":{"states":1,"transitions":[{"from":0,"to":1,"rate":1}]},"t":1,"order":1,"pad":"` + strings.Repeat("x", 64) + `"}`,
	} {
		_, wantErr := referenceDecode([]byte(body))
		if len(body) > 64 {
			wantErr = &http.MaxBytesError{Limit: 64}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body)))
		var apiErr struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(rec.Body.Bytes(), &apiErr)
		if rec.Code != http.StatusBadRequest || apiErr.Error != "bad request body: "+wantErr.Error() {
			t.Errorf("body %q: %d %q, want 400 %q", body, rec.Code, apiErr.Error, wantErr)
		}
	}
}

// TestReadBodyReplaysLimitError checks that a body over the cap still
// decodes when its first JSON value ends inside the cap — as json.Decoder
// on the capped stream did — and reports the cap error otherwise.
func TestReadBodyReplaysLimitError(t *testing.T) {
	tooLarge := &http.MaxBytesError{}
	body := `{"model":{"states":1},"t":1}`
	if _, err := decodeSolveRequest([]byte(body), tooLarge); err != nil {
		t.Fatalf("complete value before the cap: %v", err)
	}
	if _, err := decodeSolveRequest([]byte(body[:10]), tooLarge); !errors.As(err, &tooLarge) {
		t.Fatalf("truncated value: got %v, want the cap error", err)
	}
}

// TestReadBodyTrustsOnlyReceivedBytes checks that a declared
// Content-Length sizes the buffer only as bytes arrive: a request that
// declares the whole cap and sends a few bytes holds no more than the
// first chunk, and a body of the declared length reads back whole.
func TestReadBodyTrustsOnlyReceivedBytes(t *testing.T) {
	const limit = 8 << 20
	for _, c := range []struct {
		declared int64
		body     string
		maxCap   int
	}{
		{limit, `{"model":{"states":1},"t":1}`, readBodyChunk},
		{3*readBodyChunk + 5, strings.Repeat("x", 3*readBodyChunk+5), 3*readBodyChunk + 6},
		{-1, strings.Repeat("y", 3*readBodyChunk), 4 * readBodyChunk},
		{0, "", 512},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(c.body))
		r.ContentLength = c.declared
		got, err := readBody(httptest.NewRecorder(), r, limit)
		if err != nil || string(got) != c.body {
			t.Fatalf("declared %d: read %d bytes, %v; want %d bytes", c.declared, len(got), err, len(c.body))
		}
		if cap(got) > c.maxCap {
			t.Errorf("declared %d, sent %d: buffer of %d bytes, want at most %d", c.declared, len(c.body), cap(got), c.maxCap)
		}
	}
}

// TestReadBodyGrowsFourfold checks the regrowth schedule: a request that
// declares 60 MB and sends 200 KiB holds at most 1 MiB, and a body of a
// declared 10 MB discards at most 6 MB of smaller buffers on the way.
func TestReadBodyGrowsFourfold(t *testing.T) {
	const limit = 64 << 20
	sent := strings.Repeat("x", 200<<10)
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(sent))
	r.ContentLength = 60 << 20
	got, err := readBody(httptest.NewRecorder(), r, limit)
	if err != nil || len(got) != len(sent) {
		t.Fatalf("read %d bytes, %v; want %d", len(got), err, len(sent))
	}
	if cap(got) > 1<<20 {
		t.Errorf("declared 60 MB, sent 200 KiB: buffer of %d bytes, want at most 1 MiB", cap(got))
	}

	body := strings.Repeat("y", 10<<20)
	r = httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err = readBody(httptest.NewRecorder(), r, limit)
	runtime.ReadMemStats(&after)
	if err != nil || len(got) != len(body) || cap(got) != len(body)+1 {
		t.Fatalf("declared %d: read %d bytes into %d, %v", len(body), len(got), cap(got), err)
	}
	// 64 KiB + 256 KiB + 1 MiB + 4 MiB discarded, then the body's own.
	if alloc, max := after.TotalAlloc-before.TotalAlloc, uint64(len(body))*8/5; alloc > max {
		t.Errorf("reading a %d-byte body allocated %d bytes, want at most %d", len(body), alloc, max)
	}
}
