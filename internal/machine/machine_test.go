package machine

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tlb"
)

// custom returns a valid non-bundled spec: the ultrix refill under a
// fresh name, mutated by fn.
func custom(t *testing.T, name string, fn func(*Spec)) *Spec {
	t.Helper()
	s, err := Lookup("ultrix")
	if err != nil {
		t.Fatal(err)
	}
	s.Name = name
	if fn != nil {
		fn(s)
	}
	return s
}

// TestBundledRoundTrip pins JSON marshal/unmarshal identity for every
// bundled spec: Canonical → Parse must reproduce the spec exactly, and
// re-serializing must reproduce the bytes exactly (the stability the
// result-cache key depends on).
func TestBundledRoundTrip(t *testing.T) {
	for _, s := range Bundled() {
		b, err := Canonical(s)
		if err != nil {
			t.Fatalf("%s: canonical: %v", s.Name, err)
		}
		back, err := Parse(b)
		if err != nil {
			t.Fatalf("%s: parse of own canonical form: %v", s.Name, err)
		}
		// Canonical normalizes an absent level list to [], the one
		// representation change it is allowed to make.
		want := *s
		if want.TLB.Levels == nil {
			want.TLB.Levels = []TLBLevel{}
		}
		if !reflect.DeepEqual(&want, back) {
			t.Errorf("%s: round trip drifted:\nhave %+v\ngot  %+v", s.Name, &want, back)
		}
		again, err := Canonical(back)
		if err != nil {
			t.Fatalf("%s: re-canonical: %v", s.Name, err)
		}
		if !bytes.Equal(b, again) {
			t.Errorf("%s: canonical serialization is not stable across a round trip", s.Name)
		}
	}
}

// cacheMissWalking turns a spec into a TLB-less, cache-miss-triggered
// machine whose refill kind walks the page table pt, with every cost set.
func cacheMissWalking(pt, kind string) func(*Spec) {
	return func(s *Spec) {
		s.TLB.Levels = nil
		s.Refill = RefillSpec{Kind: kind, Trigger: TriggerCacheMiss}
		s.PageTable.Kind = pt
		s.Costs = CostSpec{UserHandlerInstrs: 10, KernelHandlerInstrs: 20, RootHandlerInstrs: 20, WalkCycles: 7, MappedWalkCycles: 7}
	}
}

// TestValidateRejections is the rejection table: every way a spec can be
// inconsistent, with the diagnostic each should produce.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"empty-name", func(s *Spec) { s.Name = "" }, "no name"},
		{"bad-name", func(s *Spec) { s.Name = "Bad Name" }, "lowercase"},
		{"three-levels", func(s *Spec) {
			s.TLB.Levels = append(s.TLB.Levels, TLBLevel{Entries: 64, Replacement: "random"},
				TLBLevel{Entries: 64, Replacement: "random"})
		}, "at most 2"},
		{"zero-entries", func(s *Spec) { s.TLB.Levels[0].Entries = 0 }, "entries 0"},
		{"huge-entries", func(s *Spec) { s.TLB.Levels[0].Entries = MaxTLBEntries + 1 }, "outside"},
		{"bad-policy", func(s *Spec) { s.TLB.Levels[0].Replacement = "mru" }, "unknown replacement policy"},
		{"l1-setassoc", func(s *Spec) { s.TLB.Levels[0].Assoc = 4 }, "fully associative"},
		{"negative-assoc", func(s *Spec) { s.TLB.Levels[0].Assoc = -1 }, "non-negative"},
		{"protected-overflow", func(s *Spec) { s.TLB.Levels[0].ProtectedSlots = 128 }, "protected slots"},
		{"negative-protected", func(s *Spec) { s.TLB.Levels[0].ProtectedSlots = -1 }, "protected slots"},
		{"l1-latency", func(s *Spec) { s.TLB.Levels[0].HitLatency = 2 }, "hit latency must be 0"},
		{"l2-indivisible", func(s *Spec) {
			s.TLB.Levels = append(s.TLB.Levels, TLBLevel{Entries: 100, Assoc: 3, Replacement: "random"})
		}, "not divisible"},
		{"l2-protected", func(s *Spec) {
			s.TLB.Levels = append(s.TLB.Levels, TLBLevel{Entries: 256, Replacement: "random", ProtectedSlots: 8})
		}, "level 1"},
		{"negative-cost", func(s *Spec) { s.Costs.WalkCycles = -1 }, "outside"},
		{"huge-cost", func(s *Spec) { s.Costs.UserHandlerInstrs = maxHandlerInstrs + 1 }, "outside"},
		{"unknown-kind", func(s *Spec) { s.Refill.Kind = "firmware" }, "unknown kind"},
		{"unknown-trigger", func(s *Spec) { s.Refill.Trigger = "page-fault" }, "unknown trigger"},
		{"tlbmiss-no-tlb", func(s *Spec) { s.TLB.Levels = nil }, "requires at least one TLB level"},
		{"cachemiss-with-tlb", func(s *Spec) { s.Refill.Trigger = TriggerCacheMiss }, "TLB-less"},
		{"missing-user-cost", func(s *Spec) { s.Costs.UserHandlerInstrs = 0 }, "must be positive"},
		{"missing-root-cost", func(s *Spec) { s.Costs.RootHandlerInstrs = 0 }, "must be positive"},
		{"pfsm-bottomup", func(s *Spec) {
			s.Refill.Kind = RefillPFSM
			s.Costs = CostSpec{WalkCycles: 7}
		}, "not pfsm"},
		{"sw-topdown", func(s *Spec) { s.PageTable.Kind = PTTwoTierTopDown }, "top-down"},
		{"hw-three-tier", func(s *Spec) {
			s.Refill.Kind = RefillHardware
			s.PageTable.Kind = PTThreeTierBottomUp
			s.Costs = CostSpec{WalkCycles: 7}
		}, "software handlers only"},
		{"hw-clustered", func(s *Spec) {
			s.Refill.Kind = RefillHardware
			s.PageTable.Kind = PTClustered
			s.Costs = CostSpec{WalkCycles: 7}
		}, "software handler only"},
		{"disjunct-tlb-trigger", func(s *Spec) { s.PageTable.Kind = PTDisjunctTwoTier }, "no-TLB"},
		{"cachemiss-two-tier-bottomup", cacheMissWalking(PTTwoTierBottomUp, RefillSoftware), "fills no TLB"},
		{"cachemiss-three-tier-bottomup", cacheMissWalking(PTThreeTierBottomUp, RefillSoftware), "fills no TLB"},
		{"cachemiss-two-tier-topdown", cacheMissWalking(PTTwoTierTopDown, RefillHardware), "fills no TLB"},
		{"cachemiss-hashed-inverted", cacheMissWalking(PTHashedInverted, RefillSoftware), "fills no TLB"},
		{"cachemiss-clustered", cacheMissWalking(PTClustered, RefillSoftware), "fills no TLB"},
		{"pt-none-with-refill", func(s *Spec) {
			s.PageTable.Kind = PTNone
			s.Costs = CostSpec{}
		}, "requires refill kind"},
		{"unknown-pt", func(s *Spec) { s.PageTable.Kind = "b-tree" }, "unknown kind"},
		{"none-with-trigger", func(s *Spec) {
			s.Refill = RefillSpec{Kind: RefillNone, Trigger: TriggerTLBMiss}
			s.PageTable.Kind = PTNone
			s.TLB.Levels = nil
			s.Costs = CostSpec{}
		}, "takes no trigger"},
		{"none-with-tlb", func(s *Spec) {
			s.Refill = RefillSpec{Kind: RefillNone}
			s.PageTable.Kind = PTNone
			s.Costs = CostSpec{}
		}, "cannot fill a TLB"},
		{"none-with-costs", func(s *Spec) {
			s.Refill = RefillSpec{Kind: RefillNone}
			s.PageTable.Kind = PTNone
			s.TLB.Levels = nil
			s.Costs = CostSpec{UserHandlerInstrs: 10}
		}, "takes no costs"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := custom(t, "reject-me", tc.mutate)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", s)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestRegistryLookup pins name resolution: bundled names resolve, the
// unknown-name error enumerates what is registered, and the returned
// spec is a private copy.
func TestRegistryLookup(t *testing.T) {
	if _, err := Lookup("ultrix"); err != nil {
		t.Fatal(err)
	}
	_, err := Lookup("nonesuch")
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	for _, want := range []string{"nonesuch", "ultrix", "l2tlb"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("lookup error %q does not mention %q", err, want)
		}
	}
	a, _ := Lookup("l2tlb")
	a.TLB.Levels[1].Entries = 1
	b, _ := Lookup("l2tlb")
	if b.TLB.Levels[1].Entries == 1 {
		t.Fatal("mutating a looked-up spec leaked into the registry")
	}
}

// TestRegister pins run-time registration: invalid specs and bundled
// names are refused; a registered spec becomes resolvable and is copied
// in, not aliased.
func TestRegister(t *testing.T) {
	if err := Register(custom(t, "Bad Name", nil)); err == nil {
		t.Fatal("invalid spec registered")
	}
	if err := Register(custom(t, "ultrix", nil)); err == nil {
		t.Fatal("bundled name overwritten")
	}
	s := custom(t, "test-register", func(s *Spec) { s.Description = "test machine" })
	if err := Register(s); err != nil {
		t.Fatal(err)
	}
	s.Costs.UserHandlerInstrs = 99 // must not reach the registry
	got, err := Lookup("test-register")
	if err != nil {
		t.Fatal(err)
	}
	if got.Costs.UserHandlerInstrs == 99 {
		t.Fatal("registered spec aliased, not copied")
	}
	found := false
	for _, n := range Names() {
		if n == "test-register" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() = %v misses the registered machine", Names())
	}
}

// TestParseRejects pins the strict parser: unknown fields, trailing
// data, malformed JSON, and invalid specs are all refused.
func TestParseRejects(t *testing.T) {
	valid, err := Canonical(bundled()[0])
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"unknown-field", []byte(`{"name":"x","walker":"software"}`)},
		{"trailing-data", append(append([]byte{}, valid...), []byte("{}")...)},
		{"malformed", []byte(`{"name":`)},
		{"invalid-spec", []byte(`{"name":"x"}`)},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.data); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := Parse(valid); err != nil {
		t.Errorf("canonical bytes rejected: %v", err)
	}
}

// TestLoad pins the file loader's error context and success path.
func TestLoad(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	path := filepath.Join(t.TempDir(), "m.json")
	b, err := Canonical(bundled()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != bundled()[0].Name {
		t.Fatalf("loaded %q", s.Name)
	}
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("load error %v does not name the file", err)
	}
}

// TestRefillEquivalent pins the oracle's dispatch relation: l2tlb shares
// ultrix's refill despite the different TLB hierarchy; distinct refills
// differ.
func TestRefillEquivalent(t *testing.T) {
	ultrix, _ := Lookup("ultrix")
	l2, _ := Lookup("l2tlb")
	mach, _ := Lookup("mach")
	if !l2.RefillEquivalent(ultrix) {
		t.Error("l2tlb should be refill-equivalent to ultrix")
	}
	if ultrix.RefillEquivalent(mach) {
		t.Error("ultrix should not be refill-equivalent to mach")
	}
}

// TestParsePolicy pins the policy-name mapping.
func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]tlb.Policy{"random": tlb.Random, "lru": tlb.LRU, "fifo": tlb.FIFO} {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParsePolicy("mru"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestBundledValidate double-checks every bundled spec validates (init
// panics on failure, but a direct call gives a readable report).
func TestBundledValidate(t *testing.T) {
	for _, s := range Bundled() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}
