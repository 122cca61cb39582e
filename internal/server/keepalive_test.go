package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simerr"
)

// TestStreamKeepAliveReuse sends streams back to back from one client
// over keep-alive connections with no retries, against a server with one
// stream slot: the connection a stream used must carry the next request
// cleanly, and the slot must be free by the time the client sees the
// result, so not one stream may fail.
func TestStreamKeepAliveReuse(t *testing.T) {
	s := New(Config{Workers: 1})
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
	const streams = 1_000
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

// TestStreamFailureLeavesConnectionUsable sends corrupt and good streams
// in turn from one keep-alive client with no retries: each corrupt one
// must end in its error event, each good one must succeed, and the
// server must log no panic.
func TestStreamFailureLeavesConnectionUsable(t *testing.T) {
	s := New(Config{Workers: 1})
	var logged lockedBuffer
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ErrorLog = log.New(&logged, "", 0)
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	tr := testTrace(t, 10_000)
	cfg := sim.Default(sim.VMUltrix)
	var good bytes.Buffer
	if _, err := tr.WriteVMTRC(&good); err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Clone(good.Bytes())
	corrupt[len(corrupt)/2] ^= 0x40 // damage a block body
	c := client.New(ts.URL)
	c.Retries = 0
	const rounds = 40
	failed := 0
	var first error
	for i := 0; i < rounds; i++ {
		if _, err := c.StreamVMTRC(context.Background(), cfg, bytes.NewReader(corrupt), nil); !errors.Is(err, simerr.ErrTraceCorrupt) {
			t.Fatalf("round %d: corrupt stream err = %v, want ErrTraceCorrupt", i, err)
		}
		if _, err := c.StreamVMTRC(context.Background(), cfg, bytes.NewReader(good.Bytes()), nil); err != nil {
			if first == nil {
				first = err
			}
			failed++
		}
	}
	if failed > 0 {
		t.Errorf("%d of %d good streams after a corrupt one failed; first: %v", failed, rounds, first)
	}
	if strings.Contains(logged.String(), "panic") {
		t.Errorf("server logged a panic:\n%s", logged.String())
	}
}

// lockedBuffer is a bytes.Buffer safe for the server's concurrent log
// writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
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
