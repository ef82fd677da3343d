package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// UsageSource yields the records of one /v3/usage stream in stream order. It
// owns every rule a stream imposes before pricing — the per-line (or
// per-frame) byte cap, the stream line cap, blank-line skipping, decoding,
// the tenant check, and the wording of each — so a single node and the
// cluster router, which both read streams through it, cannot drift on what
// a stream means.
type UsageSource interface {
	// Next returns the next non-blank line (or frame) under its 1-based
	// physical number. When err is nil exactly one of rec and lineErr is
	// set: a record to price (valid until the following Next) or the
	// line's rejection. A non-nil err ends the stream: io.EOF at a clean
	// end, otherwise err's text is the stream error; lineErr alongside it
	// rejects the line that overran the byte cap, which still counts.
	Next() (lineNo int, rec *UsageRecord, lineErr *Error, err error)
}

// NewUsageSource reads body in the given wire format, capping each line or
// frame payload at maxBytes and the stream at maxLines physical lines or
// frames.
func NewUsageSource(wire WireFormat, body io.Reader, maxBytes int64, maxLines int) UsageSource {
	if wire == WireFrames {
		return newFrameSource(body, maxBytes, maxLines)
	}
	return newNDJSONSource(body, maxBytes, maxLines)
}

// badLine builds one line's 400 rejection.
func badLine(format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Message: fmt.Sprintf(format, args...)}
}

// oversized ends a stream at the line or frame that overran the byte cap:
// it is rejected under its own number with the stream error's wording, so
// the stream aborts (the bytes past it cannot be re-framed) yet the line is
// still accounted.
func oversized(unit string, n int, maxBytes int64) (*Error, error) {
	msg := fmt.Sprintf("%s %d exceeds %d bytes", unit, n, maxBytes)
	return badLine("%s", msg), errors.New(msg)
}

// ndjsonSource decodes one UsageRecord per line straight out of the
// scanner's buffer: decoding runs before the next Scan, so no line is
// copied.
type ndjsonSource struct {
	sc       *bufio.Scanner
	maxBytes int64
	maxLines int
	lineNo   int
	rec      UsageRecord
	done     error
}

func newNDJSONSource(body io.Reader, maxBytes int64, maxLines int) *ndjsonSource {
	sc := bufio.NewScanner(body)
	// The scanner's buffer must also hold a line's "\r\n" terminator, so
	// that, as for a frame payload, exactly maxBytes of content still fits;
	// Next checks the content length itself. The scanner's limit is
	// max(cap(buf), limit): keep the initial buffer at or below it so small
	// caps actually bind.
	limit := int(maxBytes) + len("\r\n")
	sc.Buffer(make([]byte, 0, min(64<<10, limit)), limit)
	return &ndjsonSource{sc: sc, maxBytes: maxBytes, maxLines: maxLines}
}

func (s *ndjsonSource) Next() (int, *UsageRecord, *Error, error) {
	for s.done == nil {
		scanned := s.sc.Scan()
		if !scanned && !errors.Is(s.sc.Err(), bufio.ErrTooLong) {
			s.done = io.EOF
			if err := s.sc.Err(); err != nil {
				s.done = fmt.Errorf("reading stream: %w", err)
			}
			break
		}
		s.lineNo++
		// Either the scanner could not hold the line at all, or it fit
		// only in the terminator's headroom.
		if !scanned || int64(len(s.sc.Bytes())) > s.maxBytes {
			var lineErr *Error
			lineErr, s.done = oversized("line", s.lineNo, s.maxBytes)
			return s.lineNo, nil, lineErr, s.done
		}
		// The cap counts physical lines, blank or not, so a stream of bare
		// newlines cannot hold the reader in an unbounded loop.
		if s.lineNo > s.maxLines {
			s.done = fmt.Errorf("stream exceeds %d lines", s.maxLines)
			break
		}
		raw := bytes.TrimSpace(s.sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		s.rec = UsageRecord{}
		if err := json.Unmarshal(raw, &s.rec); err != nil {
			return s.lineNo, nil, badLine("malformed JSON: %v", err), nil
		}
		if s.rec.Tenant == "" {
			return s.lineNo, nil, badLine("usage record requires a tenant"), nil
		}
		return s.lineNo, &s.rec, nil, nil
	}
	return s.lineNo, nil, nil, s.done
}

// maxPooledLine caps the spill buffer of a pooled frame source: one stream
// of near-MaxBodyBytes frames must not leave a megabyte buffer pinned in the
// pool for every later stream to inherit.
const maxPooledLine = 1 << 16

// frameSource walks a binary frame stream (see frames.go). Its reader and
// decoder are reused across streams when pooled: the 64KB window and the
// decoder's intern table are the binary path's only sizeable allocations.
type frameSource struct {
	fr       *FrameReader
	dec      FrameDecoder
	maxBytes int64
	maxLines int
	frameNo  int
	done     error
}

func newFrameSource(body io.Reader, maxBytes int64, maxLines int) *frameSource {
	return &frameSource{fr: NewFrameReader(body, maxBytes), maxBytes: maxBytes, maxLines: maxLines}
}

// reset points a pooled source at a new stream.
func (s *frameSource) reset(body io.Reader) {
	s.fr.Reset(body)
	s.frameNo, s.done = 0, nil
}

// release detaches the source from the finished request's body and reports
// whether it is fit to pool: a source whose spill buffer one large frame
// grew past maxPooledLine is left to the garbage collector rather than
// pinned for the life of the process.
func (s *frameSource) release() bool {
	s.fr.Reset(http.NoBody)
	return cap(s.fr.buf) <= maxPooledLine
}

func (s *frameSource) Next() (int, *UsageRecord, *Error, error) {
	if s.done != nil {
		return s.frameNo, nil, nil, s.done
	}
	payload, crc, err := s.fr.Next()
	switch {
	case err == io.EOF:
		s.done = err
	case errors.Is(err, ErrFrameTooLarge):
		var lineErr *Error
		lineErr, s.done = oversized("frame", s.frameNo+1, s.maxBytes)
		return s.frameNo + 1, nil, lineErr, s.done
	case err != nil:
		s.done = fmt.Errorf("reading stream: %w", err)
	default:
		s.frameNo++
		if s.frameNo > s.maxLines {
			s.done = fmt.Errorf("stream exceeds %d frames", s.maxLines)
			break
		}
		rec, lineErr := s.dec.Decode(payload, crc)
		if lineErr != nil {
			return s.frameNo, nil, lineErr, nil
		}
		if rec.Tenant == "" {
			return s.frameNo, nil, badLine("usage record requires a tenant"), nil
		}
		return s.frameNo, rec, nil, nil
	}
	return s.frameNo, nil, nil, s.done
}
