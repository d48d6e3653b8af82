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
}

// FuzzSolveRequestDecode is the differential check of the request decode
// against plain json.Decoder: the same decoded request — models compared
// with reflect.DeepEqual, nil versus empty slices included — and the same
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
