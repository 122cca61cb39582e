package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// prepStats accumulates the cost of one set-up, step by step: generating
// traces, encoding them to .vmtrc, reading them back through the
// auto-detecting file reader the CLIs use, starting vmserved (serve
// only), and the untimed warm point.
type prepStats struct {
	genRefs, vmtrcRefs             int64
	gen, encode, open, start, warm time.Duration
}

// steps lists the set-up's timed steps in order.
func (p prepStats) steps() []time.Duration {
	return []time.Duration{p.gen, p.encode, p.open, p.start, p.warm}
}

// prepareTrace generates a trace, encodes it to dir/name.vmtrc, and
// returns the trace read back from that file with its path.
func prepareTrace(t *tracer, parent int64, st *prepStats, dir, name string, gen func() (*trace.Trace, error)) (*trace.Trace, string, error) {
	sp := t.begin(parent, "workload.generate", name)
	start := time.Now()
	tr, err := gen()
	if err != nil {
		return nil, "", err
	}
	tr.Name = name
	st.gen += time.Since(start)
	st.genRefs += int64(len(tr.Refs))
	t.end(sp)

	sp = t.begin(parent, "trace.vmtrc_encode", name)
	start = time.Now()
	var buf bytes.Buffer
	if _, err := tr.WriteVMTRC(&buf); err != nil {
		return nil, "", err
	}
	st.encode += time.Since(start)
	t.end(sp)
	path := filepath.Join(dir, name+".vmtrc")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, "", err
	}

	sp = t.begin(parent, "trace.vmtrc_open", name)
	start = time.Now()
	opened, err := trace.OpenFile(path)
	if err != nil {
		return nil, "", err
	}
	st.open += time.Since(start)
	st.vmtrcRefs += int64(len(opened.Refs))
	t.end(sp)
	return opened, path, nil
}

// sameResult reports whether two results carry identical simulated
// numbers (the trace name aside).
func sameResult(a, b *sim.Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Counters != b.Counters || a.AvgChainLength != b.AvgChainLength || len(a.PerCore) != len(b.PerCore) {
		return false
	}
	for i := range a.PerCore {
		if a.PerCore[i] != b.PerCore[i] {
			return false
		}
	}
	return true
}

// exactDigest hashes every simulated number of every result, in order.
// Two passes over the same inputs must produce the same digest.
func exactDigest(results []*sim.Result) string {
	h := sha256.New()
	for _, r := range results {
		if r == nil {
			h.Write([]byte{0})
			continue
		}
		binary.Write(h, binary.LittleEndian, &r.Counters)      //nolint:errcheck // hash writes cannot fail
		binary.Write(h, binary.LittleEndian, r.AvgChainLength) //nolint:errcheck
		for i := range r.PerCore {
			binary.Write(h, binary.LittleEndian, &r.PerCore[i]) //nolint:errcheck
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
