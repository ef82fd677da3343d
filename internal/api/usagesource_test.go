package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api/apitest"
)

// drainSource renders every step of a stream as "line:tenant" for a record,
// "line!message" for a rejected line, and "eof" or "end:message" for the
// stream's end.
func drainSource(t *testing.T, src UsageSource) []string {
	t.Helper()
	var steps []string
	for {
		line, rec, lineErr, err := src.Next()
		switch {
		case rec != nil && lineErr == nil:
			steps = append(steps, fmt.Sprintf("%d:%s", line, rec.Tenant))
		case lineErr != nil && rec == nil:
			if lineErr.Status != http.StatusBadRequest {
				t.Errorf("line %d rejected with status %d", line, lineErr.Status)
			}
			steps = append(steps, fmt.Sprintf("%d!%s", line, lineErr.Message))
		case err == nil:
			t.Fatalf("line %d: Next returned neither a record nor an error", line)
		}
		if err == io.EOF {
			return append(steps, "eof")
		}
		if err != nil {
			return append(steps, "end:"+err.Error())
		}
	}
}

// sizedRecord encodes one record whose JSON line (terminator excluded) or
// frame payload is exactly n bytes, padding the key to get there.
func sizedRecord(t *testing.T, wire WireFormat, tenant string, n int) []byte {
	t.Helper()
	overhead := 1 // NDJSON's "\n"
	if wire == WireFrames {
		overhead = frameHeaderLen
	}
	// Each key byte adds one encoded byte, give or take a length prefix or
	// the key field appearing at all, so stepping by the shortfall
	// converges in a few rounds.
	for pad, round := 0, 0; pad >= 0 && round < 8; round++ {
		body, err := EncodeUsageStream(wire, []UsageRecord{frameRecord(tenant, 128, 0, strings.Repeat("k", pad))})
		if err != nil {
			t.Fatal(err)
		}
		size := len(body) - overhead
		if size == n {
			return body
		}
		pad += n - size
	}
	t.Fatalf("no %d-byte encoding of a record", n)
	return nil
}

// TestUsageSourceSteps pins, for both wires, the line numbers and wording
// the shared record source gives every stream-level rule. A node and the
// cluster router both read streams through it, so this is the one place the
// wording lives; the node's response is checked against the same steps.
func TestUsageSourceSteps(t *testing.T) {
	const maxBytes = 512
	enc := func(wire WireFormat, recs ...UsageRecord) []byte {
		body, err := EncodeUsageStream(wire, recs)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	rec := func(tenant string) UsageRecord { return frameRecord(tenant, 128, 0, "") }
	nd := func(recs ...UsageRecord) []byte { return enc(WireNDJSON, recs...) }
	fr := func(recs ...UsageRecord) []byte { return enc(WireFrames, recs...) }
	corrupt := fr(rec("x"))
	corrupt[frameHeaderLen+4] ^= 0x42
	torn := fr(rec("b"))

	for _, tc := range []struct {
		name     string
		wire     WireFormat
		maxLines int
		body     []byte
		want     []string
	}{
		{"blank and CRLF lines", WireNDJSON, 8,
			cat([]byte("\r\n \t\n"), bytes.TrimSpace(nd(rec("a"))), []byte("\r\n\n"), bytes.TrimSpace(nd(rec("b")))),
			[]string{"3:a", "5:b", "eof"}},
		{"tenantless and malformed lines", WireNDJSON, 8,
			cat(nd(rec("")), []byte("{not json\n"), nd(rec("c"))),
			[]string{"1!usage record requires a tenant",
				"2!malformed JSON: invalid character 'n' looking for beginning of object key string", "3:c", "eof"}},
		{"line exactly at the cap", WireNDJSON, 8,
			cat(sizedRecord(t, WireNDJSON, "at", maxBytes), bytes.TrimSpace(sizedRecord(t, WireNDJSON, "crlf", maxBytes)), []byte("\r\n"), nd(rec("c"))),
			[]string{"1:at", "2:crlf", "3:c", "eof"}},
		{"line one byte past the cap", WireNDJSON, 8,
			cat(nd(rec("a")), sizedRecord(t, WireNDJSON, "big", maxBytes+1), nd(rec("c"))),
			[]string{"1:a", "2!line 2 exceeds 512 bytes", "end:line 2 exceeds 512 bytes"}},
		{"line far past the cap", WireNDJSON, 8,
			cat(nd(rec("a")), []byte(strings.Repeat("x", 8*maxBytes)+"\n"), nd(rec("c"))),
			[]string{"1:a", "2!line 2 exceeds 512 bytes", "end:line 2 exceeds 512 bytes"}},
		{"line cap counts blank lines", WireNDJSON, 3,
			cat(nd(rec("a")), []byte("\n"), nd(rec("b"), rec("c"))),
			[]string{"1:a", "3:b", "end:stream exceeds 3 lines"}},
		{"tenantless and corrupt frames", WireFrames, 8,
			cat(fr(rec("")), corrupt, fr(rec("c"))),
			[]string{"1!usage record requires a tenant", "2!frame crc mismatch", "3:c", "eof"}},
		{"frame exactly at the cap", WireFrames, 8,
			cat(sizedRecord(t, WireFrames, "at", maxBytes), fr(rec("c"))),
			[]string{"1:at", "2:c", "eof"}},
		{"frame one byte past the cap", WireFrames, 8,
			cat(fr(rec("a")), sizedRecord(t, WireFrames, "big", maxBytes+1), fr(rec("c"))),
			[]string{"1:a", "2!frame 2 exceeds 512 bytes", "end:frame 2 exceeds 512 bytes"}},
		{"frame cap", WireFrames, 2,
			fr(rec("a"), rec("b"), rec("c")),
			[]string{"1:a", "2:b", "end:stream exceeds 2 frames"}},
		{"torn frame header", WireFrames, 8,
			cat(fr(rec("a")), torn[:3]),
			[]string{"1:a", "end:reading stream: torn frame header: unexpected EOF"}},
		{"torn frame payload", WireFrames, 8,
			cat(fr(rec("a")), torn[:len(torn)-4]),
			[]string{"1:a", "end:reading stream: torn frame payload: unexpected EOF"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := drainSource(t, NewUsageSource(tc.wire, bytes.NewReader(tc.body), maxBytes, tc.maxLines))
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Fatalf("steps:\n got  %q\n want %q", got, tc.want)
			}

			// A node reports exactly these steps: each rejection under its
			// own line, the end as the StreamError.
			srv, err := New(Config{Calibration: apitest.Calibration(), MaxBodyBytes: maxBytes, MaxStreamLines: tc.maxLines})
			if err != nil {
				t.Fatal(err)
			}
			req := httptest.NewRequest(http.MethodPost, "/v3/usage", bytes.NewReader(tc.body))
			req.Header.Set("Content-Type", tc.wire.ContentType())
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			var out UsageStreamResponse
			if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
				t.Fatalf("status %d: %v", w.Code, err)
			}
			var node []string
			errs := out.Errors
			for _, step := range tc.want[:len(tc.want)-1] {
				if strings.Contains(step, "!") {
					if len(errs) == 0 {
						t.Fatalf("node response %+v lacks the rejection %q", out, step)
					}
					le := errs[0]
					errs = errs[1:]
					node = append(node, fmt.Sprintf("%d!%s", le.Line, le.Error.Message))
				} else {
					node = append(node, step)
				}
			}
			end := "eof"
			if out.StreamError != "" {
				end = "end:" + out.StreamError
			}
			node = append(node, end)
			if strings.Join(node, "\n") != strings.Join(tc.want, "\n") || out.Lines != len(tc.want)-1 {
				t.Fatalf("node response %+v\n disagrees with the source's steps %q", out, tc.want)
			}
		})
	}
}

// TestFrameSourceRelease pins the pool hygiene of the binary record
// source: release drops the finished request's body — nothing buffered
// from it survives into the next stream — and refuses to pool a source
// whose spill buffer one large frame grew past maxPooledLine.
func TestFrameSourceRelease(t *testing.T) {
	body, err := EncodeUsageStream(WireFrames, []UsageRecord{frameRecord("a", 128, 0, ""), frameRecord("b", 128, 0, "")})
	if err != nil {
		t.Fatal(err)
	}
	src := newFrameSource(bytes.NewReader(body), DefaultMaxBodyBytes, DefaultMaxStreamLines)
	if _, rec, _, err := src.Next(); err != nil || rec.Tenant != "a" {
		t.Fatalf("first frame = %+v, %v", rec, err)
	}
	if !src.release() {
		t.Fatal("a source that never spilled was refused by the pool")
	}
	if _, rec, _, err := src.Next(); err != io.EOF {
		t.Fatalf("released source still reads its old body: %+v, %v", rec, err)
	}

	big := sizedRecord(t, WireFrames, "big", 2*maxPooledLine)
	src = newFrameSource(bytes.NewReader(big), DefaultMaxBodyBytes, DefaultMaxStreamLines)
	if got := drainSource(t, src); got[0] != "1:big" {
		t.Fatalf("large frame steps = %q", got)
	}
	if src.release() {
		t.Fatalf("source with a %d-byte spill buffer would be pooled", cap(src.fr.buf))
	}
}
