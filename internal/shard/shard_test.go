package shard

import (
	"testing"
)

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{
		"rr": RoundRobin, "round-robin": RoundRobin, "roundrobin": RoundRobin,
		"key": KeyAffinity, "affinity": KeyAffinity, "key-affinity": KeyAffinity,
		"least": LeastLoaded, "least-loaded": LeastLoaded, "leastloaded": LeastLoaded,
	}
	for s, want := range cases {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy(bogus) succeeded")
	}
	for _, p := range []Policy{RoundRobin, KeyAffinity, LeastLoaded} {
		if back, err := ParsePolicy(p.String()); err != nil || back != p {
			t.Fatalf("round-trip %v -> %q -> %v, %v", p, p.String(), back, err)
		}
	}
}

func TestRoundRobinCyclesWithStagger(t *testing.T) {
	r := NewRouter(RoundRobin, 4, 2)
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, r.Push(0, nil))
	}
	want := []int{2, 3, 0, 1, 2, 3, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rr sequence %v, want %v", got, want)
		}
	}
	// Pops cycle on their own cursor from the same staggered start, so
	// pushes and pops interleaved in any pattern still visit the shards
	// in the same order: the k-th pop targets the k-th push's shard.
	for i, w := range want {
		if got := r.Pop(0, nil); got != w {
			t.Fatalf("pop %d after 8 pushes = %d, want %d", i, got, w)
		}
	}
	r = NewRouter(RoundRobin, 4, 2)
	for i := 0; i < 8; i++ {
		push, pop := r.Push(0, nil), r.Pop(0, nil)
		if push != want[i] || pop != want[i] {
			t.Fatalf("alternating step %d: push %d, pop %d; want both %d", i, push, pop, want[i])
		}
	}
}

func TestKeyAffinityStableAndSpread(t *testing.T) {
	r := NewRouter(KeyAffinity, 8, 0)
	counts := make([]int, 8)
	for key := uint64(0); key < 4096; key++ {
		i := r.Push(key, nil)
		if j := r.Pop(key, nil); j != i {
			t.Fatalf("key %d: push shard %d != pop shard %d", key, i, j)
		}
		if k := r.Push(key, nil); k != i {
			t.Fatalf("key %d: routing not stable (%d then %d)", key, i, k)
		}
		counts[i]++
	}
	// Sequential keys must not collapse onto few shards: each of the 8
	// shards should see a reasonable share of 4096 keys (expected 512).
	for i, c := range counts {
		if c < 256 || c > 1024 {
			t.Fatalf("shard %d got %d of 4096 sequential keys (counts %v)", i, c, counts)
		}
	}
}

func TestLeastLoadedPicks(t *testing.T) {
	loads := []int{5, 1, 9, 1}
	load := func(i int) int { return loads[i] }
	r := NewRouter(LeastLoaded, 4, 0)
	if i := r.Push(0, load); i != 1 {
		t.Fatalf("push routed to %d, want 1 (first least-loaded)", i)
	}
	if i := r.Pop(0, load); i != 2 {
		t.Fatalf("pop routed to %d, want 2 (most-loaded)", i)
	}
}

func TestStealOrder(t *testing.T) {
	loads := []int{3, 0, 7, 7, 1}
	got := StealOrder(nil, loads, 0)
	want := []int{2, 3, 4} // most-loaded first, ties by index, skip home(0) and empty(1)
	if len(got) != len(want) {
		t.Fatalf("StealOrder = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("StealOrder = %v, want %v", got, want)
		}
	}
	// Scratch reuse: a big enough dst is aliased, not reallocated.
	scratch := make([]int, 0, 8)
	got = StealOrder(scratch, loads, 2)
	if &got[0] != &scratch[:1][0] {
		t.Fatal("StealOrder reallocated despite sufficient scratch")
	}
	// Home exclusion.
	for _, i := range got {
		if i == 2 {
			t.Fatalf("home shard 2 listed as victim: %v", got)
		}
	}
}

func TestStealOrderDoesNotAllocate(t *testing.T) {
	loads := []int{3, 0, 7, 7, 1, 9, 2, 5}
	scratch := make([]int, 0, len(loads))
	if n := testing.AllocsPerRun(100, func() {
		scratch = StealOrder(scratch, loads, 1)
	}); n != 0 {
		t.Fatalf("StealOrder made %v allocs per call, want 0", n)
	}
	want := []int{5, 2, 3, 7, 0, 6, 4}
	if len(scratch) != len(want) {
		t.Fatalf("StealOrder = %v, want %v", scratch, want)
	}
	for i := range want {
		if scratch[i] != want[i] {
			t.Fatalf("StealOrder = %v, want %v", scratch, want)
		}
	}
}

func TestHashAvalanche(t *testing.T) {
	// Neighboring keys must land in different buckets often enough that
	// modulo reduction doesn't stripe; crude avalanche check.
	same := 0
	for key := uint64(0); key < 1024; key++ {
		if Hash(key)%4 == Hash(key+1)%4 {
			same++
		}
	}
	if same > 512 {
		t.Fatalf("neighboring keys collide in %d/1024 cases", same)
	}
}
