// Streaming ingest: POST /v1/stream simulates a trace while it is still
// arriving, pushing timeline rows back as they complete.
//
// Protocol: the request body is one JSON api.StreamRequest immediately
// followed by raw .vmtrc bytes on the same connection. The response is
// NDJSON api.StreamEvents — one "ready" after the trace header decodes,
// one "sample" per completed SampleEvery interval (pushed live, while
// the upload is still in flight), then a terminal "result" or "error".
// The connection is full-duplex for its whole life: the server reads
// blocks and writes rows concurrently.
//
// Backpressure is structural. The decoder holds exactly one block
// resident (two small reusable buffers), the simulator consumes it
// before the next read, and the unread remainder of the upload sits in
// the kernel's TCP window — so a fast client cannot balloon a slow
// server's memory, and the per-stream footprint is a constant
// regardless of trace size. Admission is bounded too: at most
// Config.MaxStreams live streams, the rest refused with 429 and a
// Retry-After hint, mirroring the point queue's explicit-backpressure
// contract. A draining server refuses new streams with 503 but
// finalizes in-flight ones: Shutdown's WaitGroup includes every live
// stream, exactly as it includes in-flight points.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/sim"
	"repro/internal/simerr"
	"repro/internal/trace"
	"repro/internal/version"
)

// handleStream is the POST /v1/stream handler.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	// Admission, under the same lock and with the same closed-check as
	// runCampaign: once admitted, the stream joins the drain WaitGroup,
	// and the check-then-Add ordering keeps Add safely ahead of
	// Shutdown's Wait.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if s.streams >= s.cfg.MaxStreams {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"all %d stream slots in use; retry shortly or use POST /v1/jobs", s.cfg.MaxStreams)
		return
	}
	s.streams++
	s.wg.Add(1)
	s.mu.Unlock()
	s.streamsTotal.Inc()
	// The slot frees as soon as the stream's outcome is decided, before
	// the terminal event goes out: a client that starts its next stream
	// on seeing that event must find the slot free. The drain
	// WaitGroup still covers the whole handler.
	release := sync.OnceFunc(func() {
		s.mu.Lock()
		s.streams--
		s.mu.Unlock()
	})
	defer s.wg.Done()
	defer release()

	// The JSON preamble: everything the json.Decoder over-read past the
	// closing brace is the start of the .vmtrc body, so the two readers
	// are stitched back together with MultiReader.
	dec := json.NewDecoder(r.Body)
	var req api.StreamRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding stream request: %v", err)
		return
	}
	if req.APIVersion != api.Version {
		writeError(w, http.StatusBadRequest, "api_version %d not supported (server speaks %d)", req.APIVersion, api.Version)
		return
	}
	if err := req.Config.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "config: %v", err)
		return
	}
	body := io.MultiReader(dec.Buffered(), r.Body)

	rd, err := trace.NewVMTRCStreamReader(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading trace header: %v", err)
		return
	}
	eng, err := sim.NewStreamer(req.Config)
	if err != nil {
		writeError(w, http.StatusBadRequest, "config: %v", err)
		return
	}
	if err := eng.BeginStream(rd.Name(), rd.Len()); err != nil {
		writeError(w, http.StatusInternalServerError, "opening stream: %v", err)
		return
	}

	// From here the response status is committed; failures become
	// terminal "error" events. The connection goes full-duplex, and the
	// listener's request read deadline (tuned for short exchanges) is
	// lifted — a long trace legitimately streams for longer.
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()            //nolint:errcheck // HTTP/2 is duplex without it
	rc.SetReadDeadline(time.Time{})  //nolint:errcheck
	rc.SetWriteDeadline(time.Time{}) //nolint:errcheck
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	emit := func(ev api.StreamEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		return rc.Flush() == nil
	}
	// fail ends the response with an error event. It then closes the
	// request body, which reads what remains of a short body, leaving the
	// connection ready for its next request, and makes net/http close the
	// connection after the response when more remains: net/http does not
	// finish a full-duplex body itself before reading the connection's
	// next request, and then fails that request.
	fail := func(err error) {
		release()
		emit(api.StreamEvent{Type: api.StreamError, Error: err.Error(), Category: simerr.Category(err)})
		r.Body.Close() //nolint:errcheck
	}

	if !emit(api.StreamEvent{
		Type:      api.StreamReady,
		Engine:    version.Engine(),
		Trace:     rd.Name(),
		TotalRefs: rd.Len(),
	}) {
		return
	}

	var lastBytes int64
	emitted := 0 // sample events pushed so far == len(res.Timeline) prefix
	for {
		// Between blocks is the cancellation point: the client hanging up
		// aborts its own stream; a hard server cancel (Shutdown's context
		// expiring) aborts everyone's.
		if err := r.Context().Err(); err != nil {
			return // client is gone; nothing left to tell it
		}
		if err := s.baseCtx.Err(); err != nil {
			fail(fmt.Errorf("server shutting down: %w", simerr.ErrCancelled))
			return
		}
		chunk, err := rd.NextChunk()
		if err == io.EOF {
			break
		}
		if err != nil {
			fail(err)
			return
		}
		samples, err := eng.Feed(chunk)
		if err != nil {
			fail(err)
			return
		}
		s.streamRefs.Add(uint64(len(chunk)))
		s.streamBytes.Add(uint64(rd.BytesRead() - lastBytes))
		lastBytes = rd.BytesRead()
		for i := range samples {
			if !emit(api.StreamEvent{Type: api.StreamSample, Sample: &samples[i]}) {
				return
			}
			emitted++
		}
	}

	// Read the body's end (in a well-formed body, only the transfer
	// encoding's) before answering, for the reason fail gives.
	if _, err := io.CopyN(io.Discard, body, maxTrailingBytes+1); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("more than %d bytes follow the trace's last record: %w",
				maxTrailingBytes, simerr.ErrTraceCorrupt)
		}
		fail(err)
		return
	}
	res, err := eng.EndStream()
	if err != nil {
		fail(err)
		return
	}
	release()
	// The trailing partial interval (if any) exists only after EndStream;
	// push it so the sample events and Result.Timeline are identical.
	for i := emitted; i < len(res.Timeline); i++ {
		if !emit(api.StreamEvent{Type: api.StreamSample, Sample: &res.Timeline[i]}) {
			return
		}
	}
	dg := eng.Digest()
	emit(api.StreamEvent{
		Type: api.StreamResult,
		Result: &api.PointResult{
			Workload:       res.Workload,
			Counters:       &res.Counters,
			AvgChainLength: res.AvgChainLength,
			PerCore:        res.PerCore,
		},
		Digest: &dg,
		Refs:   rd.Decoded(),
		Bytes:  rd.BytesRead(),
	})
}

// maxTrailingBytes bounds what handleStream reads past the last record.
const maxTrailingBytes = 4 << 10
