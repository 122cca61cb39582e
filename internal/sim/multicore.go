package sim

import (
	"context"

	"repro/internal/mem"
	"repro/internal/oskernel"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Multicore replays one trace over N cores. Each core is a full Engine —
// private TLBs and private split cache hierarchy, seeded per core (see
// CoreSeed) — while all cores share one physical memory, one page table
// (and thus one walker), and one OS kernel. The interleaving is the
// deterministic round-robin the trace itself defines: reference i
// executes on core i mod N, so the trace order is the global execution
// order and a run is exactly reproducible from (config, trace).
//
// The cores advance in lockstep through the shared structures: because
// one reference completes — walker, kernel fault, shootdowns and all —
// before the next begins, the shared page table and kernel see a single
// serialized access stream. That is the modeling choice, not an
// implementation accident: the paper's cost taxonomy charges cycles per
// event, and a serialized interleaving makes every event's charge
// attributable to exactly one core without modeling coherence traffic
// the paper never measured.
//
// A 1-core Multicore is bit-identical to the single-core Engine: core 0
// keeps the base seed, one replay driver runs both, and the kernel
// attachment rule is the same (TestMulticoreOneCoreMatchesEngine).
type Multicore struct {
	driver

	cfg   Config
	cores []*Engine
	kern  *oskernel.Kernel
}

// NewMulticore builds an N-core machine for cfg (cfg.Cores >= 1; 0 is
// promoted to 1). Every core shares the physical memory, the walker and
// its page table, and — when the configuration calls for one — the OS
// kernel, which derives from the base seed so policy decisions are a
// property of the machine, not of any core.
func NewMulticore(cfg Config) (*Multicore, error) {
	return newMulticore(cfg, func(int) *caches { return new(caches) })
}

// newMulticore is NewMulticore building core c's caches in coreCaches(c).
func newMulticore(cfg Config, coreCaches func(c int) *caches) (*Multicore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Cores
	if n == 0 {
		n = 1
	}
	phys := mem.New(cfg.PhysMemBytes)
	refill, err := buildRefill(cfg, phys)
	if err != nil {
		return nil, err
	}
	m := &Multicore{cfg: cfg}
	m.driver = newDriver(m, cfg)
	m.cores = make([]*Engine, n)
	for c := 0; c < n; c++ {
		coreCfg := cfg
		coreCfg.Seed = CoreSeed(cfg.Seed, c)
		// The cluster's driver steps the cores; their own drivers stay
		// idle.
		e := assemble(coreCfg, phys, refill, coreCaches(c))
		e.coreID = c
		m.cores[c] = e
	}
	// Core 0 builds the kernel from the base configuration, as a
	// single-core engine would; every core then shares it.
	if err := m.cores[0].attachKernel(cfg); err != nil {
		return nil, err
	}
	if m.kern = m.cores[0].kern; m.kern != nil {
		for _, e := range m.cores {
			e.kern, e.peers, e.shootdownCost = m.kern, m.cores, cfg.ShootdownCost
		}
	}
	return m, nil
}

// Cores returns the number of simulated cores.
func (m *Multicore) Cores() int { return len(m.cores) }

// span replays refs one reference at a time, trace index i on core
// i mod N. The cluster never uses the fast phase loop: its fetch-line
// memo assumes no other core can disturb TLB or cache state between two
// of its references, which shootdowns violate.
func (m *Multicore) span(refs []trace.Ref, pos int) error {
	for i := range refs {
		if err := m.step(&refs[i], pos+i); err != nil {
			return err
		}
	}
	return nil
}

// step replays the reference at trace index pos on the core the
// interleaving assigns.
func (m *Multicore) step(r *trace.Ref, pos int) error {
	return m.cores[pos%len(m.cores)].step(r, pos)
}

// setLive switches every core between warming and measuring at once.
func (m *Multicore) setLive(live bool) {
	for _, e := range m.cores {
		e.live = live
	}
}

// resetTLBStats restarts every core's TLB statistics.
func (m *Multicore) resetTLBStats() {
	for _, e := range m.cores {
		e.resetTLBStats()
	}
}

// Snapshot returns the cluster counters: the sum over every core's own
// snapshot. The decomposition laws survive the summation — each
// component's cycles and events add independently — so cluster MCPI and
// VMCPI are the per-instruction overheads of the whole machine.
func (m *Multicore) Snapshot() stats.Counters {
	var sum stats.Counters
	for _, e := range m.cores {
		c := e.Snapshot()
		sum.Add(&c)
	}
	return sum
}

// CoreSnapshot returns core c's own counters.
func (m *Multicore) CoreSnapshot(c int) stats.Counters {
	return m.cores[c].Snapshot()
}

// Digest summarizes the whole machine's mutable state: the field-wise
// sum of every core's digest. Checkers comparing two multicore runs
// compare these (and can drill into per-core digests on divergence).
func (m *Multicore) Digest() Digest {
	var sum Digest
	for _, e := range m.cores {
		d := e.Digest()
		sum.IL1 += d.IL1
		sum.IL2 += d.IL2
		sum.DL1 += d.DL1
		sum.DL2 += d.DL2
		sum.ITLB += d.ITLB
		sum.ITLBProt += d.ITLBProt
		sum.DTLB += d.DTLB
		sum.DTLBProt += d.DTLBProt
		sum.TLB2 += d.TLB2
	}
	return sum
}

// CoreDigest returns core c's own machine-state digest.
func (m *Multicore) CoreDigest(c int) Digest { return m.cores[c].Digest() }

// result assembles the Result: summed counters as the headline figures,
// every core's own counters as Result.PerCore (always populated, even
// for one core — the multicore result says what each core did).
func (m *Multicore) result(workload string) *Result {
	per := make([]stats.Counters, len(m.cores))
	var sum stats.Counters
	for i, e := range m.cores {
		per[i] = e.Snapshot()
		sum.Add(&per[i])
	}
	return &Result{
		Config:         m.cfg,
		Workload:       workload,
		Counters:       sum,
		AvgChainLength: chainStats(m.cores[0].refill), // one walker serves every core
		PerCore:        per,
	}
}

// --- dispatch --------------------------------------------------------

// Streamer is the incremental-replay surface shared by the single-core
// Engine and the Multicore cluster: open a stream, feed reference
// chunks, close it for the Result, and digest the machine state at any
// point. NewStreamer picks the implementation a configuration calls for,
// which is how the serving layer runs multicore points without caring
// about core counts.
type Streamer interface {
	BeginStream(name string, total int) error
	Feed(refs []trace.Ref) ([]TimelineSample, error)
	EndStream() (*Result, error)
	Digest() Digest
}

// replayMachine is either machine through its replay driver.
type replayMachine interface {
	Streamer
	RunContext(ctx context.Context, tr *trace.Trace) (*Result, error)
}

// newMachine builds the machine cfg calls for: the Multicore cluster
// when Cores > 1, the single-core Engine otherwise.
func newMachine(cfg Config) (replayMachine, error) {
	if cfg.Cores > 1 {
		return NewMulticore(cfg)
	}
	return NewEngine(cfg)
}

// NewStreamer builds the streaming replay engine cfg calls for: the
// Multicore cluster when Cores > 1, the single-core Engine otherwise
// (bit-identical to every existing single-core stream).
func NewStreamer(cfg Config) (Streamer, error) { return newMachine(cfg) }
