package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// mirrorOp is one step of a single-handle script. side 0 and 1 name the two
// ends; the mirrored run swaps them.
type mirrorOp struct {
	kind int // 0 push, 1 pop, 2 pushN, 3 popN, 4 try push, 5 try pop, 6 ctx push, 7 ctx pop
	side int
	n    int  // batch length or attempt budget
	dead bool // ctx ops: run with an already-cancelled context
}

func (o mirrorOp) String() string {
	return fmt.Sprintf("{kind %d side %d n %d dead %v}", o.kind, o.side, o.n, o.dead)
}

// runMirrorScript runs script on d through the exported per-side entry
// points, swapping the ends when mirrored, and returns one line per op
// describing what it returned.
func runMirrorScript(d *Deque, script []mirrorOp, mirrored bool) []string {
	h := d.Register()
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	next := uint32(1)
	out := make([]string, 0, len(script))
	for _, op := range script {
		left := (op.side == 0) != mirrored
		ctx := context.Background()
		if op.dead {
			ctx = dead
		}
		var res string
		switch op.kind {
		case 0:
			var err error
			if left {
				err = d.PushLeft(h, next)
			} else {
				err = d.PushRight(h, next)
			}
			res = fmt.Sprint(err)
			next++
		case 1:
			var v uint32
			var ok bool
			if left {
				v, ok = d.PopLeft(h)
			} else {
				v, ok = d.PopRight(h)
			}
			res = fmt.Sprint(v, ok)
		case 2:
			vals := make([]uint32, op.n)
			for i := range vals {
				vals[i] = next
				next++
			}
			var n int
			var err error
			if left {
				n, err = d.PushLeftN(h, vals)
			} else {
				n, err = d.PushRightN(h, vals)
			}
			res = fmt.Sprint(n, err)
		case 3:
			dst := make([]uint32, op.n)
			var n int
			if left {
				n = d.PopLeftN(h, dst)
			} else {
				n = d.PopRightN(h, dst)
			}
			res = fmt.Sprint(n, dst[:n])
		case 4:
			var err error
			if left {
				err = d.TryPushLeft(h, next, op.n)
			} else {
				err = d.TryPushRight(h, next, op.n)
			}
			res = fmt.Sprint(err)
			next++
		case 5:
			var v uint32
			var ok bool
			var err error
			if left {
				v, ok, err = d.TryPopLeft(h, op.n)
			} else {
				v, ok, err = d.TryPopRight(h, op.n)
			}
			res = fmt.Sprint(v, ok, err)
		case 6:
			var err error
			if left {
				err = d.PushLeftCtx(ctx, h, next)
			} else {
				err = d.PushRightCtx(ctx, h, next)
			}
			res = fmt.Sprint(err)
			next++
		case 7:
			var v uint32
			var ok bool
			var err error
			if left {
				v, ok, err = d.PopLeftCtx(ctx, h)
			} else {
				v, ok, err = d.PopRightCtx(ctx, h)
			}
			res = fmt.Sprint(v, ok, errors.Is(err, context.Canceled))
		}
		out = append(out, res)
	}
	return out
}

// mirrorScript draws a seeded script whose pushes outnumber its pops a
// little, so chains grow across several nodes before draining.
func mirrorScript(rng *rand.Rand, length int) []mirrorOp {
	script := make([]mirrorOp, length)
	for i := range script {
		op := mirrorOp{side: rng.Intn(2)}
		switch r := rng.Intn(20); {
		case r < 6:
			op.kind = 0
		case r < 11:
			op.kind = 1
		case r < 13:
			op.kind, op.n = 2, rng.Intn(12)
		case r < 15:
			op.kind, op.n = 3, rng.Intn(12)
		case r < 16:
			op.kind, op.n = 4, 1+rng.Intn(3)
		case r < 17:
			op.kind, op.n = 5, 1+rng.Intn(3)
		case r < 18:
			op.kind, op.dead = 6, rng.Intn(4) == 0
		default:
			op.kind, op.dead = 7, rng.Intn(4) == 0
		}
		script[i] = op
	}
	return script
}

// TestSideMirrorEquivalence checks that the two ends of the deque are exact
// mirrors: a seeded single-handle script and the same script with Left and
// Right swapped return the same values, leave mirror-image contents, and
// move every observability counter and the memory stats identically. Even
// node sizes keep the constructor's sz/2 split symmetric. The recycling
// row bounds live nodes so retire, pool reuse and ErrFull are on the path.
// A single handle never sees the other side's seal (seal and remove happen
// within one call), so the staged row starts from a pop stalled between
// the two — pendingRightSeal, mirrored by pendingLeftSeal — where the first
// op on the other side must read that seal.
func TestSideMirrorEquivalence(t *testing.T) {
	type variant struct {
		name  string
		cfg   Config
		stage func(mirrored bool) *Deque // nil: New(cfg)
	}
	var variants []variant
	for _, sz := range []int{4, 6, 8, 16} {
		variants = append(variants,
			variant{name: fmt.Sprintf("sz%d", sz), cfg: Config{NodeSize: sz}},
			variant{name: fmt.Sprintf("sz%d/elim", sz), cfg: Config{NodeSize: sz, Elimination: true}},
		)
	}
	variants = append(variants,
		variant{name: "sz4/recycling", cfg: Config{NodeSize: 4, MaxLiveNodes: 3, PoolNodes: 2}},
		variant{name: "sz6/pending-seal", stage: func(mirrored bool) *Deque {
			if mirrored {
				d, _, _ := pendingLeftSeal(t)
				return d
			}
			d, _, _ := pendingRightSeal(t)
			return d
		}},
	)
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for seed := 0; seed < seeds; seed++ {
				script := mirrorScript(rand.New(rand.NewSource(int64(seed))), 400)
				var a, b *Deque
				if v.stage != nil {
					a, b = v.stage(false), v.stage(true)
				} else {
					cfg := v.cfg
					cfg.MaxThreads = 2
					a, b = New(cfg), New(cfg)
				}
				var ra, rb []string
				done := make(chan struct{})
				go func() {
					defer close(done)
					ra = runMirrorScript(a, script, false)
					rb = runMirrorScript(b, script, true)
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("seed %d: a run wedged", seed)
				}
				for i := range ra {
					if ra[i] != rb[i] {
						t.Fatalf("seed %d: op %d %v returned %q, mirrored %q", seed, i, script[i], ra[i], rb[i])
					}
				}
				sb := b.Slice()
				slices.Reverse(sb)
				if sa := a.Slice(); !slices.Equal(sa, sb) {
					t.Fatalf("seed %d: contents %v, mirrored run reversed %v", seed, sa, sb)
				}
				if ca, cb := a.obsReg.Merge(), b.obsReg.Merge(); ca != cb {
					t.Fatalf("seed %d: counters differ:\n%v\n%v", seed, ca, cb)
				}
				if ma, mb := a.MemStats(), b.MemStats(); !reflect.DeepEqual(ma, mb) {
					t.Fatalf("seed %d: MemStats %+v, mirrored %+v", seed, ma, mb)
				}
				for _, d := range []*Deque{a, b} {
					if err := d.CheckInvariant(); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			}
		})
	}
}
