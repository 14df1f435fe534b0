package deque

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestGenericBatchRoundTrip drives the public batch API over a struct type:
// values must round-trip through the slab in order on both ends.
func TestGenericBatchRoundTrip(t *testing.T) {
	type item struct {
		ID   int
		Name string
	}
	d := New[item](WithNodeSize(8))
	h := d.Register()
	in := make([]item, 20)
	for i := range in {
		in[i] = item{ID: i, Name: fmt.Sprintf("v%d", i)}
	}
	h.PushRightN(in)
	if d.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(in))
	}
	out := make([]item, 7)
	got := 0
	for {
		n := h.PopLeftN(out)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			if out[i] != in[got] {
				t.Fatalf("element %d = %+v, want %+v", got, out[i], in[got])
			}
			got++
		}
	}
	if got != len(in) {
		t.Fatalf("popped %d, want %d", got, len(in))
	}
	// Left pushes reverse; right pops reverse again: identity.
	h.PushLeftN(in)
	for i := len(in) - 1; i >= 0; i-- {
		n := h.PopLeftN(out[:1])
		if n != 1 || out[0] != in[i] {
			t.Fatalf("left-pushed pop = %+v (n=%d), want %+v", out[0], n, in[i])
		}
	}
	h.Flush()
}

// TestUint32BatchAndReserved covers the raw-payload batch API including the
// all-or-nothing reserved check.
func TestUint32BatchAndReserved(t *testing.T) {
	d := NewUint32(WithNodeSize(8))
	h := d.Register()
	if _, err := h.PushRightN([]uint32{1, 2, MaxUint32Value + 1}); err != ErrReserved {
		t.Fatalf("reserved batch = %v, want ErrReserved", err)
	}
	if d.Len() != 0 {
		t.Fatalf("rejected batch left %d values", d.Len())
	}
	if _, err := h.PushRightN([]uint32{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint32, 8)
	if n := h.PopRightN(dst[:2]); n != 2 || dst[0] != 5 || dst[1] != 4 {
		t.Fatalf("PopRightN = %d %v", n, dst[:2])
	}
	if n := h.PopLeftN(dst); n != 3 || dst[0] != 1 || dst[1] != 2 || dst[2] != 3 {
		t.Fatalf("PopLeftN = %d %v", n, dst[:3])
	}
	if _, err := h.PushLeftN(nil); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentBatchNoValueLoss is the public-API conservation check under
// concurrency: batched pushes and pops from several goroutines, then a
// drain, must account for every value exactly once.
func TestConcurrentBatchNoValueLoss(t *testing.T) {
	d := New[uint64](WithNodeSize(8), WithMaxThreads(32))
	const workers = 6
	iters := 2000
	if testing.Short() {
		iters = 500
	}
	popped := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := d.Register()
			defer h.Flush()
			buf := make([]uint64, 5)
			dst := make([]uint64, 5)
			for i := 0; i < iters; i++ {
				if i%2 == 0 {
					for j := range buf {
						buf[j] = uint64(w)<<32 | uint64(i*8+j) + 1
					}
					if w%2 == 0 {
						h.PushLeftN(buf)
					} else {
						h.PushRightN(buf)
					}
				} else {
					var n int
					if w%2 == 0 {
						n = h.PopRightN(dst)
					} else {
						n = h.PopLeftN(dst)
					}
					popped[w] = append(popped[w], dst[:n]...)
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	total := 0
	record := func(v uint64) {
		if seen[v] {
			t.Fatalf("value %#x seen twice", v)
		}
		seen[v] = true
		total++
	}
	for _, vs := range popped {
		for _, v := range vs {
			record(v)
		}
	}
	h := d.Register()
	dst := make([]uint64, 64)
	for {
		n := h.PopLeftN(dst)
		if n == 0 {
			break
		}
		for _, v := range dst[:n] {
			record(v)
		}
	}
	want := workers * (iters / 2) * 5
	if total != want {
		t.Fatalf("recovered %d values, want %d", total, want)
	}
}

// TestTruncatedBatchPushPopPrefix pins the (n int) contract across the
// batch APIs: a PushRightN truncated by ErrFull reports the landed prefix
// length k, and draining pops observe exactly vs[:k] — in order from the
// left, reversed from the right — with dst[n:] untouched on every pop.
func TestTruncatedBatchPushPopPrefix(t *testing.T) {
	// A tiny node registry exhausts mid-batch, which is the only way a
	// batch push truncates to a non-trivial prefix from the public API
	// (the value slab of Deque[T] reserves batch space all-or-nothing).
	// WithRegistryLimit rounds up to the arena's 8192-ID chunk size, so
	// the smallest real limit is 8192 nodes; at NodeSize 4 that exhausts
	// within ~32k pushes — the batch is sized past it.
	newSmall := func() *Uint32 {
		return NewUint32(WithNodeSize(4), WithRegistryLimit(1), WithMaxThreads(2))
	}
	vs := make([]uint32, 40_000)
	for i := range vs {
		vs[i] = 1000 + uint32(i)
	}

	d := newSmall()
	h := d.Register()
	k, err := h.PushRightN(vs)
	if !errors.Is(err, ErrFull) {
		t.Fatalf("PushRightN on tiny registry = (%d, %v), want ErrFull", k, err)
	}
	if k <= 0 || k >= len(vs) {
		t.Fatalf("prefix k = %d, want a strict prefix of %d", k, len(vs))
	}
	if got := d.Len(); got != k {
		t.Fatalf("Len = %d after truncated push, want %d", got, k)
	}

	// PopLeftN observes vs[:k] in push order, and leaves dst[n:] alone.
	const sentinel = 0xABABABAB
	dst := make([]uint32, len(vs))
	for i := range dst {
		dst[i] = sentinel
	}
	n := h.PopLeftN(dst)
	if n != k {
		t.Fatalf("PopLeftN = %d, want the full prefix %d", n, k)
	}
	for i := 0; i < n; i++ {
		if dst[i] != vs[i] {
			t.Fatalf("dst[%d] = %d, want %d (the pushed prefix, in order)", i, dst[i], vs[i])
		}
	}
	for i := n; i < len(dst); i++ {
		if dst[i] != sentinel {
			t.Fatalf("dst[%d] clobbered to %d past the popped count", i, dst[i])
		}
	}
	if n = h.PopLeftN(dst); n != 0 {
		t.Fatalf("second PopLeftN = %d, want 0 (nothing of vs[k:] may appear)", n)
	}

	// Same shape from the right: PopRightN sees the prefix reversed.
	d2 := newSmall()
	h2 := d2.Register()
	k2, err := h2.PushRightN(vs)
	if !errors.Is(err, ErrFull) || k2 <= 0 || k2 >= len(vs) {
		t.Fatalf("second PushRightN = (%d, %v), want strict prefix + ErrFull", k2, err)
	}
	got := 0
	small := make([]uint32, 5) // odd chunk size exercises partial fills
	for {
		n := h2.PopRightN(small)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			if want := vs[k2-1-got]; small[i] != want {
				t.Fatalf("right-drain value %d = %d, want %d", got, small[i], want)
			}
			got++
		}
	}
	if got != k2 {
		t.Fatalf("right drain recovered %d values, want %d", got, k2)
	}
}

// TestTruncatedBatchPrefixViews pins the same contract through the Queue
// view vocabulary: EnqueueN truncated to (k, ErrFull), DequeueN returns
// exactly the enqueued prefix, oldest first.
func TestTruncatedBatchPrefixViews(t *testing.T) {
	q := NewQueue[int](WithNodeSize(4), WithRegistryLimit(1), WithMaxThreads(2))
	h := q.Register()
	vs := make([]int, 40_000)
	for i := range vs {
		vs[i] = 7000 + i
	}
	k, err := h.EnqueueN(vs)
	if !errors.Is(err, ErrFull) || k <= 0 || k >= len(vs) {
		t.Fatalf("EnqueueN = (%d, %v), want strict prefix + ErrFull", k, err)
	}
	dst := make([]int, len(vs))
	n := h.DequeueN(dst)
	if n != k {
		t.Fatalf("DequeueN = %d, want %d", n, k)
	}
	for i := 0; i < n; i++ {
		if dst[i] != vs[i] {
			t.Fatalf("dequeued[%d] = %d, want %d", i, dst[i], vs[i])
		}
	}
	if h.DequeueN(dst) != 0 {
		t.Fatal("queue must be empty after draining the prefix")
	}
}
