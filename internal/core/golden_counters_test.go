package core

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/word"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_counters.txt")

// TestGoldenCounters runs one fixed single-handle script through every op
// family — plain, Ctx, Try and N, on both sides, including pre-cancelled
// contexts, reserved values, staged pending seals and node-limit exhaustion — with
// elimination off and on, and pins the complete
// outcome: every return value, the handle's Stats(), every obs counter
// (transitions, fails, hint publishes, oracle walks/hops/restarts,
// edge-cache hits/misses, elimination) and, per op, the set of counters it
// advanced and its failed-cycle count. Single-threaded, every figure is
// deterministic, so any change to the operation scaffolding that moves a
// counter or a cache decision shows up as a diff against testdata/golden_counters.txt. Regenerate with
// -update-golden only for an intended behaviour change.
func TestGoldenCounters(t *testing.T) {
	if !obs.Enabled {
		t.Skip("the golden text pins counters compiled out (obsoff)")
	}
	var out strings.Builder
	// The headers name the reclamation scheme, hazard pointers, as the
	// golden text always has, so these blocks stay byte-identical to it.
	for _, el := range []bool{false, true} {
		cfg := Config{NodeSize: 8, MaxThreads: 2, Elimination: el}
		fmt.Fprintf(&out, "== hazard elim=%v ==\n", el)
		goldenScript(&out, cfg)
		fmt.Fprintf(&out, "== hazard elim=%v staged seals ==\n", el)
		goldenSealScript(&out, cfg)
		fmt.Fprintf(&out, "== hazard elim=%v max-live=3 ==\n", el)
		cfg.MaxLiveNodes = 3
		goldenFullScript(&out, cfg)
	}
	const file = "testdata/golden_counters.txt"
	if *updateGolden {
		if err := os.WriteFile(file, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("line %d drifted from the golden text:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
	}
}

// goldenScript is the every-family script; it logs each op's outcome.
func goldenScript(out *strings.Builder, cfg Config) {
	d := New(cfg)
	h := d.Register()
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	logf := func(format string, a ...any) { fmt.Fprintf(out, format, a...) }
	pops := func(tag string, n int, f func() (uint32, bool, error)) {
		logf("%s:", tag)
		for i := 0; i < n; i++ {
			var v uint32
			var ok bool
			var err error
			m := opMark(h, func() { v, ok, err = f() })
			switch {
			case err != nil:
				logf(" err(%v)%s", err, m)
			case !ok:
				logf(" empty%s", m)
			default:
				logf(" %d%s", v, m)
			}
		}
		logf("\n")
	}
	pushes := func(tag string, n int, f func(i int) error) {
		logf("%s:", tag)
		for i := 0; i < n; i++ {
			var err error
			m := opMark(h, func() { err = f(i) })
			if err != nil {
				logf(" err(%v)%s", err, m)
			} else {
				logf(" ok%s", m)
			}
		}
		logf("\n")
	}
	plainL := func() (uint32, bool, error) { v, ok := d.PopLeft(h); return v, ok, nil }
	plainR := func() (uint32, bool, error) { v, ok := d.PopRight(h); return v, ok, nil }

	pushes("PushRight", 20, func(i int) error { return d.PushRight(h, uint32(i)) })
	pops("PopLeft", 22, plainL)
	pushes("PushLeft", 12, func(i int) error { return d.PushLeft(h, uint32(100+i)) })
	pops("PopRight", 13, plainR)
	pushes("reserved", 2, func(i int) error {
		if i == 0 {
			return d.PushLeft(h, word.LN)
		}
		_, err := d.PushRightN(h, []uint32{1, word.RS, 2})
		return err
	})
	pushes("PushCtx", 10, func(i int) error {
		if err := d.PushLeftCtx(ctx, h, uint32(200+i)); err != nil {
			return err
		}
		return d.PushRightCtx(ctx, h, uint32(300+i))
	})
	pushes("PushCtx(cancelled)", 2, func(i int) error {
		if i == 0 {
			return d.PushLeftCtx(cancelled, h, 1)
		}
		return d.PushRightCtx(cancelled, h, 1)
	})
	pops("PopCtx(cancelled)", 1, func() (uint32, bool, error) { return d.PopLeftCtx(cancelled, h) })
	pops("PopCtx(cancelled)", 1, func() (uint32, bool, error) { return d.PopRightCtx(cancelled, h) })
	pops("PopLeftCtx", 12, func() (uint32, bool, error) { return d.PopLeftCtx(ctx, h) })
	pops("PopRightCtx", 12, func() (uint32, bool, error) { return d.PopRightCtx(ctx, h) })
	pushes("TryPush", 8, func(i int) error {
		if err := d.TryPushLeft(h, uint32(400+i), 1); err != nil {
			return err
		}
		return d.TryPushRight(h, uint32(500+i), 3)
	})
	pops("TryPopRight", 10, func() (uint32, bool, error) { return d.TryPopRight(h, 1) })
	pops("TryPopLeft", 10, func() (uint32, bool, error) { return d.TryPopLeft(h, 0) })
	vals := make([]uint32, 60)
	for i := range vals {
		vals[i] = uint32(600 + i)
	}
	var n int
	var err error
	m := opMark(h, func() { n, err = d.PushLeftN(h, vals[:30]) })
	logf("PushLeftN: %d %v %s\n", n, err, m)
	m = opMark(h, func() { n, err = d.PushRightN(h, vals[30:]) })
	logf("PushRightN: %d %v %s\n", n, err, m)
	dst := make([]uint32, 40)
	m = opMark(h, func() { n = d.PopLeftN(h, dst[:25]) })
	logf("PopLeftN: %v %s\n", dst[:n], m)
	m = opMark(h, func() { n = d.PopRightN(h, dst[:40]) })
	logf("PopRightN: %v %s\n", dst[:n], m)
	m = opMark(h, func() { n = d.PopLeftN(h, dst[:5]) })
	logf("PopLeftN(empty): %v %s\n", dst[:n], m)
	pushes("ping-pong", 6, func(i int) error {
		if err := d.PushLeft(h, uint32(i)); err != nil {
			return err
		}
		d.PopRight(h)
		return d.PushRight(h, uint32(i))
	})
	pops("PopLeft", 8, plainL)
	goldenState(out, d, h)
}

// goldenSealScript runs one op of every family against a staged pending
// seal on the op's own side (a sealed neighbour the op must remove first,
// L7, and then retry), with the handle's edge cache seeded at the staged
// edge so the failed attempt is a cached one. Each run starts on a fresh
// deque and logs the op's outcome, Stats and non-zero counters.
func goldenSealScript(out *strings.Builder, cfg Config) {
	ctx := context.Background()
	type op struct {
		name string
		run  func(d *Deque, h *Handle, left bool) (string, error)
	}
	push := func(f func(d *Deque, h *Handle, left bool) error) func(*Deque, *Handle, bool) (string, error) {
		return func(d *Deque, h *Handle, left bool) (string, error) { return "", f(d, h, left) }
	}
	ops := []op{
		{"push", push(func(d *Deque, h *Handle, left bool) error {
			if left {
				return d.PushLeft(h, 7)
			}
			return d.PushRight(h, 7)
		})},
		{"pushCtx", push(func(d *Deque, h *Handle, left bool) error {
			if left {
				return d.PushLeftCtx(ctx, h, 7)
			}
			return d.PushRightCtx(ctx, h, 7)
		})},
		{"tryPush1", push(func(d *Deque, h *Handle, left bool) error {
			if left {
				return d.TryPushLeft(h, 7, 1)
			}
			return d.TryPushRight(h, 7, 1)
		})},
		{"tryPush2", push(func(d *Deque, h *Handle, left bool) error {
			if left {
				return d.TryPushLeft(h, 7, 2)
			}
			return d.TryPushRight(h, 7, 2)
		})},
		{"pushN", push(func(d *Deque, h *Handle, left bool) error {
			var err error
			if left {
				_, err = d.PushLeftN(h, []uint32{7, 8, 9})
			} else {
				_, err = d.PushRightN(h, []uint32{7, 8, 9})
			}
			return err
		})},
		{"pop", func(d *Deque, h *Handle, left bool) (string, error) {
			var v uint32
			var ok bool
			if left {
				v, ok = d.PopLeft(h)
			} else {
				v, ok = d.PopRight(h)
			}
			return fmt.Sprint(v, ok), nil
		}},
		{"popCtx", func(d *Deque, h *Handle, left bool) (string, error) {
			var v uint32
			var ok bool
			var err error
			if left {
				v, ok, err = d.PopLeftCtx(ctx, h)
			} else {
				v, ok, err = d.PopRightCtx(ctx, h)
			}
			return fmt.Sprint(v, ok), err
		}},
		{"popN", func(d *Deque, h *Handle, left bool) (string, error) {
			dst := make([]uint32, 4)
			if left {
				return fmt.Sprint(dst[:d.PopLeftN(h, dst)]), nil
			}
			return fmt.Sprint(dst[:d.PopRightN(h, dst)]), nil
		}},
	}
	for _, o := range ops {
		for _, left := range []bool{true, false} {
			d := New(cfg)
			h := d.Register()
			stageSeal(d, h, left)
			var res string
			var err error
			m := opMark(h, func() { res, err = o.run(d, h, left) })
			side := "right"
			if left {
				side = "left"
			}
			fmt.Fprintf(out, "%s %s: %s err=%v %s len=%d stats=%+v\n  ", o.name, side, res, err, m, d.Len(), h.Stats())
			for c := obs.Counter(0); c < obs.NumCounters; c++ {
				if n := h.rec.Load(c); n != 0 {
					fmt.Fprintf(out, " %s=%d", c, n)
				}
			}
			fmt.Fprintf(out, "\n")
		}
	}
}

// stageSeal builds, on a fresh deque, the state a same-side pop leaves
// between its seal (L5) and its remove (L7) — one datum on the live node
// beside a sealed empty neighbour on the given side — and seeds h's edge
// cache for that side at the straddle.
func stageSeal(d *Deque, h *Handle, left bool) {
	sz := d.sz
	live, _ := d.hint[obs.SideLeft].get()
	if left {
		// sealed=[LN | LN .. LN LS | →live], live=[→sealed | 5 RN .. | RN]
		live.slots[1].Store(word.Pack(5, 1))
		for i := 2; i < sz-1; i++ {
			live.slots[i].Store(word.Pack(word.RN, 1))
		}
		sealed := d.newNode(sz) // all LN
		sealed.slots[sz-2].Store(word.Pack(word.LS, 1))
		sealed.slots[sz-1].Store(word.Pack(live.id, 1))
		live.slots[0].Store(word.Pack(sealed.id, 1))
		h.edge[obs.SideLeft], h.idx[obs.SideLeft] = live, 1
		return
	}
	// live=[LN | LN .. 5 | →sealed], sealed=[→live | RS RN .. | RN]
	for i := 1; i < sz-2; i++ {
		live.slots[i].Store(word.Pack(word.LN, 1))
	}
	live.slots[sz-2].Store(word.Pack(5, 1))
	sealed := d.newNode(0) // all RN
	sealed.slots[1].Store(word.Pack(word.RS, 1))
	sealed.slots[0].Store(word.Pack(live.id, 1))
	live.slots[sz-1].Store(word.Pack(sealed.id, 1))
	h.edge[obs.SideRight], h.idx[obs.SideRight] = live, 1
}

// goldenFullScript drives a deque capped at three live nodes into ErrFull through the plain, Ctx and N pushes, then keeps working the
// chain it has: the edge cache must survive the ErrFull return.
func goldenFullScript(out *strings.Builder, cfg Config) {
	d := New(cfg)
	h := d.Register()
	ctx := context.Background()
	logf := func(format string, a ...any) { fmt.Fprintf(out, format, a...) }
	full := 0
	for i := 0; i < 40 && full < 2; i++ {
		var err error
		m := opMark(h, func() { err = d.PushRight(h, uint32(i)) })
		logf("%d:%v%s ", i, err != nil, m)
		if errors.Is(err, ErrFull) {
			full++
		}
	}
	logf("\n")
	for i := 0; i < 3; i++ {
		var v uint32
		var ok bool
		m := opMark(h, func() { v, ok = d.PopRight(h) })
		logf("PopRight: %d %v %s\n", v, ok, m)
	}
	var err error
	m := opMark(h, func() { err = d.PushRightCtx(ctx, h, 90) })
	logf("PushRightCtx: %v %s\n", err, m)
	m = opMark(h, func() { err = d.TryPushRight(h, 91, 2) })
	logf("TryPushRight: %v %s\n", err, m)
	var n int
	m = opMark(h, func() { n, err = d.PushRightN(h, []uint32{92, 93, 94, 95, 96, 97, 98, 99}) })
	logf("PushRightN: %d %v %s\n", n, err, m)
	m = opMark(h, func() { n, err = d.PushLeftN(h, []uint32{80, 81, 82, 83, 84, 85, 86, 87}) })
	logf("PushLeftN: %d %v %s\n", n, err, m)
	m = opMark(h, func() { err = d.PushLeftCtx(ctx, h, 79) })
	logf("PushLeftCtx: %v %s\n", err, m)
	m = opMark(h, func() { err = d.TryPushLeft(h, 78, 1) })
	logf("TryPushLeft: %v %s\n", err, m)
	dst := make([]uint32, 64)
	m = opMark(h, func() { n = d.PopLeftN(h, dst) })
	logf("PopLeftN: %v %s\n", dst[:n], m)
	goldenState(out, d, h)
}

// opMark runs f — one logged call on h — and renders what it did as
// "[mask/attempts]": the obs.DiffMask of the counters it advanced and its
// failed oracle+transition cycles (the Retries delta).
func opMark(h *Handle, f func()) string {
	before, retries := h.rec.Snapshot(), h.Retries
	f()
	return fmt.Sprintf("[%#x/%d]", obs.DiffMask(before, h.rec.Snapshot()), h.Retries-retries)
}

// goldenState writes the handle's Stats and every counter.
func goldenState(out *strings.Builder, d *Deque, h *Handle) {
	fmt.Fprintf(out, "stats: %+v\n", h.Stats())
	fmt.Fprintf(out, "len=%d nodes=%d allocated=%d\n", d.Len(), d.Nodes(), d.NodesAllocated())
	fmt.Fprintf(out, "counters:")
	for c := obs.Counter(0); c < obs.NumCounters; c++ {
		fmt.Fprintf(out, " %s=%d", c, h.rec.Load(c))
	}
	fmt.Fprintf(out, "\n")
}
