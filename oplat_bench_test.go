package deque

// Benchmarks behind the A/B gates in scripts/verify.sh, which races them
// through scripts/ab.sh. Each runs one handle through a fixed single-op
// workload as a go-test benchmark, because b.N iteration timing resolves
// sub-percent per-op differences that wall-clock throughput windows
// cannot: on a noisy single-core box a contention sweep's trial-to-trial
// spread is >10%, while two 3-second runs of BenchmarkObsMixed4Way agree
// to ~0.2%.
//
//	go test -bench ObsMixed4Way -benchtime 1s            # default build
//	go test -tags obsoff -bench ObsMixed4Way -benchtime 1s
import (
	"os"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/xrand"
)

// benchOpts honors OPLAT_LATSAMPLE so the overhead gate's attribution
// mode can race the same binary against itself with only the latency
// sampler changed (e.g. OPLAT_LATSAMPLE=0 disables it; unset keeps the
// default interval).
func benchOpts(opts ...Option) []Option {
	if s := os.Getenv("OPLAT_LATSAMPLE"); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			opts = append(opts, WithLatencySample(n))
		}
	}
	return opts
}

// benchMixed4Way runs n mixed single ops on h.
func benchMixed4Way(h *Handle[uint32], rng *xrand.Xoshiro256, n int) {
	for i := 0; i < n; i++ {
		v := uint32(i) & 0x00FFFFFF
		switch rng.Intn(4) {
		case 0:
			h.PushLeft(v)
		case 1:
			h.PushRight(v)
		case 2:
			h.PopLeft()
		case 3:
			h.PopRight()
		}
	}
}

// BenchmarkObsMixed4Way is the uncontended side of the overhead gate: one
// handle, the 4-way mixed workload, everything the default build adds
// (transition counters, sampled latency stamps, flight-recorder op notes)
// on the measured path. On unix it also reports cpu-ns/op — process CPU
// time per op — which competing load on a shared box cannot inflate the
// way wall time can; the overhead gate compares that metric.
func BenchmarkObsMixed4Way(b *testing.B) {
	benchSerialMixed4Way(b, New[uint32](benchOpts(WithMaxThreads(2))...))
}

// benchSerialMixed4Way prefills d through one handle and times b.N mixed
// single ops on it.
func benchSerialMixed4Way(b *testing.B, d *Deque[uint32]) {
	h := d.Register()
	for i := 0; i < 1024; i++ {
		h.PushLeft(uint32(i))
	}
	rng := xrand.NewXoshiro256(1)
	b.ResetTimer()
	start := cpuTimeNs()
	benchMixed4Way(h, rng, b.N)
	reportCPUPerOp(b, start)
}

// BenchmarkPoolKey0Alternating and BenchmarkRelaxedStrictAlternating are
// the two sides of the strict-Relaxed A/B: the same push-left/pop-right
// pairs on a 4-shard pool, once through a PoolHandle with key 0 and once
// through a strict (WithRelaxation(0)) RelaxedHandle, which delegates to
// exactly those calls. The gap is the delegation wrapper.
func BenchmarkPoolKey0Alternating(b *testing.B) {
	h := NewPool[uint32](4, WithShardOptions(WithMaxThreads(2))).Register()
	benchAlternating(b, func(v uint32) error { return h.PushLeft(0, v) },
		func() (uint32, bool) { return h.PopRight(0) })
}

func BenchmarkRelaxedStrictAlternating(b *testing.B) {
	r := NewRelaxed[uint32](4, WithRelaxation(0),
		WithRelaxedPool(WithShardOptions(WithMaxThreads(2))))
	h := r.Register()
	benchAlternating(b, h.PushLeft, h.PopRight)
}

// benchAlternating prefills through push and times b.N push-then-pop
// pairs; one op is one pair.
func benchAlternating(b *testing.B, push func(uint32) error, pop func() (uint32, bool)) {
	for i := 0; i < 1024; i++ {
		if err := push(uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	start := cpuTimeNs()
	for i := 0; i < b.N; i++ {
		if err := push(uint32(i) & 0x00FFFFFF); err != nil {
			b.Fatal(err)
		}
		pop()
	}
	reportCPUPerOp(b, start)
}

// BenchmarkUint32Batch8/64 and BenchmarkUint32Single8/64 measure what the
// batch API buys on one Uint32 handle: each op moves n values in at the
// left and n out at the right, through one PushLeftN+PopRightN pair or
// through n PushLeft and n PopRight calls. Race a pair with scripts/ab.sh:
//
//	sh scripts/ab.sh '' 'Uint32Single8$' '' 'Uint32Batch8$'
func BenchmarkUint32Batch8(b *testing.B)   { benchUint32Round(b, 8, true) }
func BenchmarkUint32Single8(b *testing.B)  { benchUint32Round(b, 8, false) }
func BenchmarkUint32Batch64(b *testing.B)  { benchUint32Round(b, 64, true) }
func BenchmarkUint32Single64(b *testing.B) { benchUint32Round(b, 64, false) }

// benchUint32Round prefills one handle and times b.N rounds of n pushes
// at the left and n pops at the right, batched or one value at a time.
func benchUint32Round(b *testing.B, n int, batch bool) {
	h := NewUint32(benchOpts(WithMaxThreads(2))...).Register()
	for i := 0; i < 1024; i++ {
		if err := h.PushLeft(uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
	vals, dst := make([]uint32, n), make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i)
	}
	b.ResetTimer()
	start := cpuTimeNs()
	for i := 0; i < b.N; i++ {
		if batch {
			if _, err := h.PushLeftN(vals); err != nil {
				b.Fatal(err)
			}
			if got := h.PopRightN(dst); got != n {
				b.Fatalf("PopRightN = %d, want %d", got, n)
			}
			continue
		}
		for _, v := range vals {
			if err := h.PushLeft(v); err != nil {
				b.Fatal(err)
			}
		}
		for range vals {
			if _, ok := h.PopRight(); !ok {
				b.Fatal("PopRight on a prefilled deque reported empty")
			}
		}
	}
	reportCPUPerOp(b, start)
}

// reportCPUPerOp reports the process CPU time since start per b.N as
// cpu-ns/op, the metric the A/B gates compare.
func reportCPUPerOp(b *testing.B, start int64) {
	if end := cpuTimeNs(); start >= 0 && end >= 0 {
		b.ReportMetric(float64(end-start)/float64(b.N), "cpu-ns/op")
	}
}

// BenchmarkObsMixed4WayParallel is the contended counterpart, run by hand
// rather than gated: GOMAXPROCS workers (use -cpu to oversubscribe) hammer
// one deque so the failure-streak bookkeeping in noteFailure and the
// watchdog checks run on the measured path too. Oversubscribed on one
// core its cpu-ns/op mostly measures backoff-spin luck under preemption,
// so it gates nothing.
func BenchmarkObsMixed4WayParallel(b *testing.B) {
	d := New[uint32](benchOpts(WithMaxThreads(64))...)
	var seed atomic.Uint64
	ph := d.Register()
	for i := 0; i < 1024; i++ {
		ph.PushLeft(uint32(i))
	}
	b.ResetTimer()
	start := cpuTimeNs()
	b.RunParallel(func(pb *testing.PB) {
		h := d.Register()
		rng := xrand.NewXoshiro256(seed.Add(1) * 0x9e3779b97f4a7c15)
		ops := 0
		for pb.Next() {
			v := uint32(ops) & 0x00FFFFFF
			switch rng.Intn(4) {
			case 0:
				h.PushLeft(v)
			case 1:
				h.PushRight(v)
			case 2:
				h.PopLeft()
			case 3:
				h.PopRight()
			}
			ops++
		}
	})
	reportCPUPerOp(b, start)
}
