package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simerr"
)

// TestStreamKeepAliveReuse sends streams back to back from one client
// over keep-alive connections with no retries: the connection a stream
// used must carry the next request cleanly, so not one stream may fail.
func TestStreamKeepAliveReuse(t *testing.T) {
	// A stream's slot frees only after its result reaches the client,
	// so back-to-back streams need more than one slot.
	s := New(Config{Workers: 1, MaxStreams: 4})
	hs, err := obs.StartHTTP("127.0.0.1:0", s.Handler())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		hs.Shutdown(ctx) //nolint:errcheck
		s.Shutdown(ctx)  //nolint:errcheck
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	})
	tr := testTrace(t, 4_000)
	cfg := sim.Default(sim.VMUltrix)
	cfg.WarmupInstrs = 1_000
	cfg.SampleEvery = 1_000
	c := client.New("http://" + hs.Addr)
	c.Retries = 0
	const streams = 250
	failed := 0
	var first error
	for i := 0; i < streams; i++ {
		if _, err := c.Stream(context.Background(), cfg, tr, nil); err != nil {
			if first == nil {
				first = err
			}
			failed++
		}
	}
	if failed > 0 {
		t.Fatalf("%d of %d back-to-back streams failed over keep-alive connections; first: %v",
			failed, streams, first)
	}
}

// TestStreamTrailingBytesBounded: the drain after the trace's last
// record accepts a few stray bytes but fails a body that keeps going
// past maxTrailingBytes as a corrupt trace.
func TestStreamTrailingBytesBounded(t *testing.T) {
	checkNoGoroutineLeak(t)
	_, ts := startServer(t, Config{Workers: 1, MaxStreams: 4})
	tr := testTrace(t, 4_000)
	cfg := sim.Default(sim.VMUltrix)
	var vmtrc bytes.Buffer
	if _, err := tr.WriteVMTRC(&vmtrc); err != nil {
		t.Fatal(err)
	}
	c := client.New(ts.URL)
	c.Retries = 0
	for _, extra := range []int{16, 2 * maxTrailingBytes} {
		body := io.MultiReader(bytes.NewReader(vmtrc.Bytes()), bytes.NewReader(make([]byte, extra)))
		_, err := c.StreamVMTRC(context.Background(), cfg, body, nil)
		if want := extra > maxTrailingBytes; (err != nil) != want || want && !errors.Is(err, simerr.ErrTraceCorrupt) {
			t.Fatalf("%d trailing bytes: err = %v", extra, err)
		}
	}
}
