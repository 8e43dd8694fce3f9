package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"eqasm/internal/wire"
)

// FuzzBatchWire drives decodeBatch, the one POST /v1/batches decode
// both servers run, with arbitrary bodies. No body may panic it; every
// rejection is a 4xx carrying an error message; and an accepted body,
// re-encoded the way eqasm.Client encodes a wire.Batch (json.Marshal),
// decodes back to the same batch.
func FuzzBatchWire(f *testing.F) {
	for _, seed := range []string{
		`{"requests":[{"source":"STOP","shots":3,"seed":2,"tag":"a"}]}`,
		`{"requests":[{"source":"qubits 1\nrz q[0], %theta","format":"cqasm","params":{"theta":0.5}}],"wait":true,"priority":"high"}`,
		`{"requests":[{"circuit":{"name":"x","num_qubits":1,"gates":[{"name":"X","qubits":[0]},{"name":"RZ","qubits":[0],"angle":-0.25}]},"fusion":"off","backend":"statevector"}]}`,
		`{"requests":[{"source":"STOP","params":{}}],"priority":"low"}`,
		// The coordinator's journal record at the parent revision.
		`{"chip":"twoqubit","requests":[{"source":"STOP","shots":8,"seed":9,"tag":"t","backend":"stabilizer"}]}`,
		`{"requests":[]}`,
		`{}`,
		`[`,
		`{"requests":[{"source":"STOP","shots":-1}]}`,
		`{"requests":[{"source":"STOP","params":{"":1}}]}`,
		`{"requests":[{"source":"STOP","format":"quil"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		body, ok := decodeForFuzz(t, data)
		if !ok {
			return
		}
		re, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("re-encode accepted body: %v", err)
		}
		again, ok := decodeForFuzz(t, re)
		if !ok {
			t.Fatalf("re-encoded body rejected: %s", re)
		}
		if !reflect.DeepEqual(normalizeBatch(body), normalizeBatch(again)) {
			t.Fatalf("round trip changed the batch:\nfirst:  %+v\nsecond: %+v", body, again)
		}
	})
}

// decodeForFuzz runs decodeBatch on data and checks the rejection
// contract: a 4xx status with a JSON error message, and nothing written
// on acceptance.
func decodeForFuzz(t *testing.T, data []byte) (wire.Batch, bool) {
	t.Helper()
	rec := httptest.NewRecorder()
	body, _, ok := decodeBatch(rec, httptest.NewRequest(http.MethodPost, "/v1/batches", bytes.NewReader(data)))
	if ok {
		if rec.Body.Len() != 0 {
			t.Fatalf("accepted body wrote a response: %s", rec.Body)
		}
		return body, true
	}
	if rec.Code < 400 || rec.Code > 499 {
		t.Fatalf("rejection status %d, want 4xx", rec.Code)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("rejection without an error message: %q", rec.Body)
	}
	return body, false
}

// normalizeBatch drops empty parameter maps, which the encoder omits
// (omitempty) and so decode back as nil.
func normalizeBatch(b wire.Batch) wire.Batch {
	reqs := make([]wire.Request, len(b.Requests))
	copy(reqs, b.Requests)
	for i := range reqs {
		if len(reqs[i].Params) == 0 {
			reqs[i].Params = nil
		}
	}
	b.Requests = reqs
	return b
}
