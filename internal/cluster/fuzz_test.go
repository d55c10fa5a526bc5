package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzShardIngestResponse: ShardClient.PostIngest classifies whatever a
// shard answers — any status from 200 to 599, any body. The request body
// carries the answer (two bytes of status, then the response body), so
// one server serves every input. It must never panic or error on a
// response that arrived; a 2xx is always Consumed (a batch the shard
// absorbed is never redelivered); the ledger is filled only from a body
// that parses with an "accepted" field; and a batch that was not
// consumed always carries an error message for the retry log.
func FuzzShardIngestResponse(f *testing.F) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := io.ReadAll(r.Body) // the client sent it whole
		w.WriteHeader(int(binary.BigEndian.Uint16(req)))
		w.Write(req[2:])
	}))
	defer srv.Close()
	c := &ShardClient{Base: srv.URL, HTTP: srv.Client()}

	for _, seed := range []struct {
		status uint16
		body   string
	}{
		{200, `{"accepted":12,"rejected":1,"windows_emitted":2,"windows_shed":0,"first_rejected_line":3,"first_rejected_error":"bad dimension"}`},
		{429, `{"accepted":500,"rejected":0,"windows_emitted":1,"windows_shed":1}`},
		{503, `{"error":"draining"}`},
		{200, ``},
		{400, `{"accepted":4,"rej`},
		{200, `{"accepted":null}`},
		{204, `{"accepted":1}`},
		{500, `{"accepted":1}` + string(bytes.Repeat([]byte(" "), 1<<20))},
	} {
		f.Add(seed.status, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, status uint16, body []byte) {
		status = 200 + status%400
		req := binary.BigEndian.AppendUint16(nil, status)
		out, err := c.PostIngest(context.Background(), append(req, body...), false)
		if err != nil {
			t.Fatalf("status %d: %v", status, err)
		}
		if out.Status != int(status) {
			t.Fatalf("Status = %d, want %d", out.Status, status)
		}
		if status/100 == 2 && !out.Consumed {
			t.Fatalf("a %d was not Consumed: it would be redelivered", status)
		}
		if !out.Consumed && out.ErrorMsg == "" {
			t.Fatalf("status %d not consumed, with no error message", status)
		}
		// What the client read: nothing for a status that carries no
		// body, and at most its 1 MiB read limit.
		if status == http.StatusNoContent || status == http.StatusNotModified {
			body = nil
		}
		body = body[:min(len(body), 1<<20)]
		var wire ingestWire
		var ledger IngestOutcome
		if json.Unmarshal(body, &wire) == nil && wire.Accepted != nil {
			ledger = IngestOutcome{Accepted: *wire.Accepted, Rejected: wire.Rejected, Windows: wire.Windows, Shed: wire.Shed,
				FirstRejectedLine: wire.FirstRejectedLine, FirstRejectedError: wire.FirstRejectedError}
			if !out.Consumed {
				t.Fatalf("status %d: a ledger body was not Consumed", status)
			}
		}
		got := IngestOutcome{Accepted: out.Accepted, Rejected: out.Rejected, Windows: out.Windows, Shed: out.Shed,
			FirstRejectedLine: out.FirstRejectedLine, FirstRejectedError: out.FirstRejectedError}
		if got != ledger {
			t.Fatalf("status %d body %q: ledger %+v, want %+v", status, body, got, ledger)
		}
	})
}
