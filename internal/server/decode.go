package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"

	"somrm/internal/spec"
)

// readBodyChunk is the first buffer readBody allocates. The buffer grows
// with the bytes that arrive, never ahead of them on a client's word.
const readBodyChunk = 64 << 10

// readBody reads a request body whole under the size cap. The buffer
// starts at readBodyChunk (or the declared Content-Length, if smaller)
// and at most doubles per regrowth, up to the declared length when that
// is within the cap, so a body of that length ends in a buffer of its
// size. On a read error (the cap included) it returns what was read
// along with the error.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	want := 0 // declared length plus one byte to observe EOF
	if r.ContentLength > 0 && r.ContentLength <= limit {
		want = int(r.ContentLength) + 1
	}
	buf := make([]byte, 0, min(max(want, 512), readBodyChunk))
	for {
		if len(buf) == cap(buf) {
			size := 2 * cap(buf)
			if cap(buf) < want {
				size = min(size, want)
			}
			buf = append(make([]byte, 0, size), buf...)
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// errReader replays a body read error after the bytes read before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeRequest decodes a solve or batch request body. A body whose
// "model" member is in the canonical spec shape has the model decoded by
// spec.CutModel in one pass and only the small remainder of the envelope
// by encoding/json; the result is the one json.Decoder gives. Any other
// body, or a body that failed to read, goes through json.Decoder as a
// stream as before. model selects the request's model field.
func decodeRequest[T any](body []byte, readErr error, model func(*T) **spec.Model) (*T, error) {
	if readErr == nil {
		if m, rest, ok := spec.CutModel(body); ok {
			req := new(T)
			if json.Unmarshal(rest, req) == nil {
				*model(req) = m
				return req, nil
			}
		}
	}
	var stream io.Reader = bytes.NewReader(body)
	if readErr != nil {
		stream = io.MultiReader(stream, errReader{readErr})
	}
	req := new(T)
	if err := json.NewDecoder(stream).Decode(req); err != nil {
		return nil, err
	}
	return req, nil
}

func decodeSolveRequest(body []byte, readErr error) (*SolveRequest, error) {
	return decodeRequest(body, readErr, func(r *SolveRequest) **spec.Model { return &r.Model })
}

func decodeBatchRequest(body []byte, readErr error) (*BatchRequest, error) {
	return decodeRequest(body, readErr, func(r *BatchRequest) **spec.Model { return &r.Model })
}
