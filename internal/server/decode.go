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
// and at most quadruples per regrowth, onto readBodyChunk·4ᵏ and up to
// the declared length when that is within the cap, so a body of that
// length ends in a buffer of its size and the buffer never exceeds four
// times the bytes received. On a read error (the cap included) it
// returns what was read along with the error.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	want := 0 // declared length plus one byte to observe EOF
	if r.ContentLength > 0 && r.ContentLength <= limit {
		want = int(r.ContentLength) + 1
	}
	buf := make([]byte, 0, min(max(want, 512), readBodyChunk))
	for {
		if len(buf) == cap(buf) {
			size := 4 * cap(buf)
			if cap(buf) < readBodyChunk {
				size = min(size, readBodyChunk)
			}
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
// "model" or "compose" member is in the canonical spec shape has its
// specs decoded by spec.CutModel in one pass and only the small remainder
// of the envelope by encoding/json; the result is the one json.Decoder
// gives. Any other body, or a body that failed to read, goes through
// json.Decoder as a stream as before. fill stores the cut's specs in the
// request.
func decodeRequest[T any](body []byte, readErr error, fill func(*T, *spec.Model, []*spec.Model)) (*T, error) {
	if readErr == nil {
		if m, compose, rest, ok := spec.CutModel(body); ok {
			req := new(T)
			if json.Unmarshal(rest, req) == nil {
				fill(req, m, compose)
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
	return decodeRequest(body, readErr, func(r *SolveRequest, m *spec.Model, compose []*spec.Model) {
		r.Model, r.Compose = m, compose
	})
}

// decodeBatchRequest decodes a batch body. A batch has no compose list,
// so a cut compose member is dropped, as encoding/json ignores the key.
func decodeBatchRequest(body []byte, readErr error) (*BatchRequest, error) {
	return decodeRequest(body, readErr, func(r *BatchRequest, m *spec.Model, _ []*spec.Model) { r.Model = m })
}
