package deque

import (
	"errors"
	"testing"
)

// Construction-time option validation: every explicit bad value is rejected
// with an error wrapping ErrBadOption (NewChecked) or a panic carrying it
// (New), and nothing is allocated on the failure path.

func TestBadOptionsRejected(t *testing.T) {
	wide := uint64(1) << 32 // a variable, so the rows compile where int is 32 bits
	cases := []struct {
		name string
		opts []Option
	}{
		{"node size zero", []Option{WithNodeSize(0)}},
		{"node size negative", []Option{WithNodeSize(-8)}},
		{"node size below minimum", []Option{WithNodeSize(2)}},
		{"node size not power of two", []Option{WithNodeSize(5)}},
		{"node size large not power of two", []Option{WithNodeSize(1000)}},
		{"max threads zero", []Option{WithMaxThreads(0)}},
		{"max threads negative", []Option{WithMaxThreads(-1)}},
		{"capacity zero", []Option{WithCapacity(0)}},
		{"capacity negative", []Option{WithCapacity(-1)}},
		{"capacity 2^32", []Option{WithCapacity(int(wide))}},
		{"capacity 2^32+1", []Option{WithCapacity(int(wide + 1))}},
		{"bad among good", []Option{WithNodeSize(64), WithMaxThreads(0), WithElimination(true)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewChecked[int](tc.opts...)
			if !errors.Is(err, ErrBadOption) {
				t.Fatalf("NewChecked err = %v, want ErrBadOption", err)
			}
			if d != nil {
				t.Fatal("NewChecked returned a deque alongside the error")
			}
			u, err := NewUint32Checked(tc.opts...)
			if !errors.Is(err, ErrBadOption) {
				t.Fatalf("NewUint32Checked err = %v, want ErrBadOption", err)
			}
			if u != nil {
				t.Fatal("NewUint32Checked returned a deque alongside the error")
			}
		})
	}
}

func TestBadOptionPanicsUnchecked(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New(WithMaxThreads(0)) did not panic")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrBadOption) {
			t.Fatalf("panic value = %v, want error wrapping ErrBadOption", r)
		}
	}()
	New[int](WithMaxThreads(0))
}

func TestGoodOptionsAccepted(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"defaults", nil},
		{"minimum node size", []Option{WithNodeSize(4)}},
		{"one thread", []Option{WithMaxThreads(1)}},
		{"capacity one", []Option{WithCapacity(1)}},
		{"kitchen sink", []Option{
			WithNodeSize(64), WithMaxThreads(8), WithCapacity(1 << 10),
			WithElimination(true),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewChecked[int](tc.opts...)
			if err != nil || d == nil {
				t.Fatalf("NewChecked = (%v, %v), want deque", d, err)
			}
			h := d.Register()
			if err := h.PushLeft(1); err != nil {
				t.Fatalf("PushLeft: %v", err)
			}
			if v, ok := h.PopRight(); !ok || v != 1 {
				t.Fatalf("PopRight = (%d, %v)", v, ok)
			}
		})
	}
}

// TestSentinelErrorsAreDistinct pins the documented error contract: the four
// sentinels are pairwise non-matching, so errors.Is dispatch is unambiguous.
func TestSentinelErrorsAreDistinct(t *testing.T) {
	sentinels := []error{ErrFull, ErrContended, ErrReserved, ErrBadOption}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if (i == j) != errors.Is(a, b) {
				t.Fatalf("errors.Is(%v, %v) = %v", a, b, errors.Is(a, b))
			}
		}
	}
}

// TestErrorsIsAcrossLayers checks that errors surfacing from any public
// layer — Uint32, Deque[T], and the views — satisfy errors.Is against the
// package sentinels (they are the core sentinels re-exported by alias).
func TestErrorsIsAcrossLayers(t *testing.T) {
	u := NewUint32()
	uh := u.Register()
	if err := uh.PushLeft(MaxUint32Value + 1); !errors.Is(err, ErrReserved) {
		t.Fatalf("Uint32 reserved push = %v, want ErrReserved", err)
	}

	d := New[int](WithCapacity(1))
	dh := d.Register()
	var full error
	for n := 0; ; n++ {
		if n > 1<<20 {
			t.Fatal("capacity never enforced")
		}
		if full = dh.PushRight(n); full != nil {
			break
		}
	}
	if !errors.Is(full, ErrFull) {
		t.Fatalf("capacity push = %v, want ErrFull", full)
	}
}
