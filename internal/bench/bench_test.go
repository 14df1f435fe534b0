package bench

import (
	"testing"
	"time"
)

func quickCfg(structure string, pattern Pattern, threads int) Config {
	return Config{
		Structure: structure,
		Pattern:   pattern,
		Threads:   threads,
		Duration:  20 * time.Millisecond,
		Trials:    2,
		Seed:      42,
	}
}

func TestRunAllStructuresSmoke(t *testing.T) {
	for _, name := range StructureNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r, err := Run(quickCfg(name, PatternDeque, 4))
			if err != nil {
				t.Fatal(err)
			}
			if r.Throughput() <= 0 {
				t.Fatalf("throughput = %v", r.Throughput())
			}
			if len(r.Trials) != 2 {
				t.Fatalf("trials = %d, want 2", len(r.Trials))
			}
		})
	}
}

func TestRunAllPatterns(t *testing.T) {
	for _, p := range Patterns {
		r, err := Run(quickCfg("of", p, 2))
		if err != nil {
			t.Fatal(err)
		}
		if r.Throughput() <= 0 {
			t.Fatalf("pattern %s: throughput = %v", p, r.Throughput())
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Structure: "of", Pattern: PatternDeque, Threads: 0}); err == nil {
		t.Fatal("no error for zero threads")
	}
	if _, err := Run(quickCfg("nonsense", PatternDeque, 1)); err == nil {
		t.Fatal("no error for unknown structure")
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("of"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("zzz"); err == nil {
		t.Fatal("no error for unknown name")
	}
}

func TestPaperStructuresAllRegistered(t *testing.T) {
	for _, name := range PaperStructures {
		if _, err := Lookup(name); err != nil {
			t.Errorf("paper structure %q not in registry", name)
		}
	}
}

func TestCustomFactories(t *testing.T) {
	for _, f := range []Factory{
		OFWithNodeSize(64),
		OFElimWithDelayedScan(32),
		TSHWWithDelay(time.Microsecond),
	} {
		cfg := quickCfg("", PatternStack, 2)
		cfg.Factory = f
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Throughput() <= 0 {
			t.Fatal("zero throughput from custom factory")
		}
	}
}

func TestPrefill(t *testing.T) {
	cfg := quickCfg("of", PatternQueue, 2)
	cfg.Prefill = 1000
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSweep(t *testing.T) {
	rs, err := Sweep(quickCfg("sgl", PatternDeque, 0), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Config.Threads != 1 || rs[1].Config.Threads != 2 {
		t.Fatalf("unexpected sweep shape: %+v", rs)
	}
}

func TestRunLatency(t *testing.T) {
	for _, name := range []string{"of", "ts-hw", "sgl"} {
		cfg := quickCfg(name, PatternDeque, 2)
		cfg.Prefill = 100
		r, err := RunLatency(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Hist.Count == 0 {
			t.Fatalf("%s: no latency samples", name)
		}
		if r.Hist.Quantile(0.99) < r.Hist.Quantile(0.5) {
			t.Fatalf("%s: p99 < p50", name)
		}
	}
}

func TestRunLatencyUnknownStructure(t *testing.T) {
	if _, err := RunLatency(quickCfg("zzz", PatternDeque, 1)); err == nil {
		t.Fatal("no error for unknown structure")
	}
}

func TestTSDelayElevatesLatency(t *testing.T) {
	// The paper's latency argument: TSDeque with a widened interval delay
	// must show visibly higher operation latency than without.
	base := quickCfg("", PatternStack, 1)
	base.Duration = 50 * time.Millisecond
	noDelay := base
	noDelay.Factory = TSHWWithDelay(0)
	withDelay := base
	withDelay.Factory = TSHWWithDelay(50 * time.Microsecond)
	r1, err := RunLatency(noDelay)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunLatency(withDelay)
	if err != nil {
		t.Fatal(err)
	}
	// Pushes draw timestamps, so roughly half of sampled ops carry the
	// delay; the mean should rise clearly.
	if r2.Hist.Mean() < r1.Hist.Mean()*2 {
		t.Fatalf("delayed TS mean %.0fns not clearly above undelayed %.0fns",
			r2.Hist.Mean(), r1.Hist.Mean())
	}
}

func TestResultString(t *testing.T) {
	r, err := Run(quickCfg("of", PatternDeque, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.String() == "" {
		t.Fatal("empty String()")
	}
}
