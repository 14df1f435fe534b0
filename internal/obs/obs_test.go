package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < NumCounters; c++ {
		name := c.String()
		if name == "" || name == "counter(?)" {
			t.Fatalf("counter %d has no name", c)
		}
		if seen[name] {
			t.Fatalf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
	if Counter(NumCounters).String() != "counter(?)" {
		t.Fatalf("out-of-range counter produced a name")
	}
}

func TestFailOf(t *testing.T) {
	for i := 0; i < NumL; i++ {
		l := CtrL1 + Counter(i)
		f := FailOf(l)
		want := "fail_" + l.String()
		if f.String() != want {
			t.Fatalf("FailOf(%v) = %v, want %s", l, f, want)
		}
	}
}

func TestRegistryMergeAndChurn(t *testing.T) {
	var g Registry
	r1 := g.NewRec()
	r1.Inc(CtrL1)
	r1.Add(CtrOracleHop, 5)
	r2 := g.NewRec()
	r2.Inc(CtrL1)
	r2.Inc(CtrE3)

	sum := g.Merge()
	if !Enabled {
		t.Skip("obsoff build: counters are no-ops")
	}
	if sum[CtrL1] != 2 || sum[CtrOracleHop] != 5 || sum[CtrE3] != 1 {
		t.Fatalf("merge = L1:%d hops:%d E3:%d", sum[CtrL1], sum[CtrOracleHop], sum[CtrE3])
	}
	if g.Handles() != 2 {
		t.Fatalf("Handles = %d", g.Handles())
	}

	// Dropping a Rec reference must not lose its counts: the registry
	// retains it.
	r1 = nil
	_ = r1
	r3 := g.NewRec()
	r3.Inc(CtrL2)
	sum = g.Merge()
	if sum[CtrL1] != 2 || sum[CtrL2] != 1 {
		t.Fatalf("post-churn merge = L1:%d L2:%d, want 2,1", sum[CtrL1], sum[CtrL2])
	}
}

func TestMergeMonotoneUnderConcurrency(t *testing.T) {
	if !Enabled {
		t.Skip("obsoff build")
	}
	var g Registry
	const workers = 4
	recs := make([]*Rec, workers)
	for i := range recs {
		recs[i] = g.NewRec()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, r := range recs {
		wg.Add(1)
		go func(r *Rec) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Inc(CtrL1)
				r.Add(CtrOracleHop, 3)
			}
		}(r)
	}
	var prev [NumCounters]uint64
	for i := 0; i < 200; i++ {
		cur := g.Merge()
		for c := range cur {
			if cur[c] < prev[c] {
				t.Errorf("counter %v regressed: %d -> %d", Counter(c), prev[c], cur[c])
			}
		}
		prev = cur
	}
	close(stop)
	wg.Wait()
}

func TestMetricsRoundTripAndIdentities(t *testing.T) {
	var c [NumCounters]uint64
	for i := range c {
		c[i] = uint64(i + 1)
	}
	m := FromCounters(c)
	if got := m.Counters(); got != c {
		t.Fatalf("Counters() round trip mismatch:\n got %v\nwant %v", got, c)
	}
	wantPushes := c[CtrL1] + c[CtrL3] + c[CtrL6] + c[CtrElimPush]
	if m.Pushes() != wantPushes {
		t.Fatalf("Pushes = %d, want %d", m.Pushes(), wantPushes)
	}
	wantPops := c[CtrL2] + c[CtrL4] + c[CtrElimPop]
	if m.Pops() != wantPops {
		t.Fatalf("Pops = %d, want %d", m.Pops(), wantPops)
	}
	wantEmpty := c[CtrE1] + c[CtrE2] + c[CtrE3]
	if m.EmptyPops() != wantEmpty {
		t.Fatalf("EmptyPops = %d, want %d", m.EmptyPops(), wantEmpty)
	}
	if m.Ops() != wantPushes+wantPops+wantEmpty {
		t.Fatalf("Ops = %d", m.Ops())
	}
}

func TestDerive(t *testing.T) {
	var m Metrics
	d := m.Derive()
	if d != (Derived{}) {
		t.Fatalf("zero metrics derived nonzero rates: %+v", d)
	}
	m.Transitions = [NumL]uint64{80, 10, 5, 2, 1, 1, 1} // total 100, non-interior 10
	m.TransitionFails = [NumL]uint64{20, 5, 0, 0, 0, 0, 0}
	m.OracleHops = 50
	d = m.Derive()
	if d.StraddleRatio != 0.10 {
		t.Fatalf("StraddleRatio = %v, want 0.10", d.StraddleRatio)
	}
	if d.CASFailureRatio != 0.2 { // 25 / 125
		t.Fatalf("CASFailureRatio = %v, want 0.2", d.CASFailureRatio)
	}
	ops := float64(m.Ops())
	if want := 50 / ops; d.MeanOracleHops != want {
		t.Fatalf("MeanOracleHops = %v, want %v", d.MeanOracleHops, want)
	}
	if want := 1 / ops; d.SealRate != want {
		t.Fatalf("SealRate = %v, want %v", d.SealRate, want)
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{Handles: 1, NodeLimit: 100, NodesLive: 2, HintPublishes: 3}
	a.Transitions[0] = 7
	b := Metrics{Handles: 2, NodeLimit: 50, NodesLive: 1, HintPublishes: 4}
	b.Transitions[0] = 5
	a.Add(b)
	if a.Transitions[0] != 12 || a.Handles != 3 || a.NodesLive != 3 || a.HintPublishes != 7 {
		t.Fatalf("Add merged wrong: %+v", a)
	}
	if a.NodeLimit != 100 { // max, not sum
		t.Fatalf("NodeLimit = %d, want 100", a.NodeLimit)
	}
}

func TestWriteProm(t *testing.T) {
	var m Metrics
	m.Transitions[0] = 42
	m.Empties[2] = 7
	m.NodesLive = 3
	var sb strings.Builder
	if err := WriteProm(&sb, "deque", m); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		`deque_transitions_total{point="L1"} 42`,
		`deque_empty_total{check="E3"} 7`,
		"deque_nodes_live 3",
		"# TYPE deque_transitions_total counter",
		"# TYPE deque_straddle_ratio gauge",
		`deque_ops_total{op="push"} 42`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}
