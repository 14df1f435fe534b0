package shard

import (
	"sync"
	"testing"
)

func TestReservePushWindow(t *testing.T) {
	s := NewStamps(4)
	// With window 2 a shard may run at most window+1 reservations ahead of
	// an all-zero floor (heads 0,1,2 pass; head 3 is rejected).
	for i := 0; i < 3; i++ {
		if _, ok := s.ReservePush(0, 2); !ok {
			t.Fatalf("push %d on shard 0 rejected inside the window", i)
		}
	}
	if _, ok := s.ReservePush(0, 2); ok {
		t.Fatal("push beyond the window must be rejected")
	}
	if s.PushCount(0) != 3 {
		t.Fatalf("rejected reservation leaked: count %d, want 3", s.PushCount(0))
	}
	// The laggard always qualifies.
	lag := s.ArgMinPush()
	if lag == 0 {
		t.Fatalf("ArgMinPush = 0, want a laggard shard")
	}
	if _, ok := s.ReservePush(lag, 2); !ok {
		t.Fatal("ArgMinPush shard must accept a push")
	}
	// Raising every other shard reopens shard 0's window.
	for j := 1; j < 4; j++ {
		for s.PushCount(j) < 2 {
			s.ReservePush(j, 0)
		}
	}
	if _, ok := s.ReservePush(0, 2); !ok {
		t.Fatal("window must reopen once the floor advances")
	}
}

func TestReservePushUndoAndBatch(t *testing.T) {
	s := NewStamps(2)
	seq, ok := s.ReservePushN(0, 3, 4)
	if !ok || seq != 3 {
		t.Fatalf("batch reserve = (%d, %v), want (3, true)", seq, ok)
	}
	// Batch head check: head 3 > 0+2 rejects a window-2 batch...
	if _, ok := s.ReservePushN(0, 2, 2); ok {
		t.Fatal("batch head beyond the window must be rejected")
	}
	// ...and a partially-landed batch returns its tail.
	s.AddPush(0, -2) // 1 of 3 landed
	if s.PushCount(0) != 1 {
		t.Fatalf("push count after tail return = %d, want 1", s.PushCount(0))
	}
	s.UndoPush(0)
	if s.PushCount(0) != 0 {
		t.Fatalf("push count after undo = %d, want 0", s.PushCount(0))
	}
}

func TestReservePopWindowTracksResidency(t *testing.T) {
	s := NewStamps(3)
	// Shards 0 and 1 hold 4 values each; shard 2 is empty.
	for j := 0; j < 2; j++ {
		s.AddPush(j, 4)
	}
	// Draining shard 0 stays legal while within window of shard 1's pop
	// floor (0): heads 0,1,2 pass under window 2, head 3 is rejected
	// because shard 1's backlog would be ignored past the window.
	for i := 0; i < 3; i++ {
		if _, ok := s.ReservePop(0, 2); !ok {
			t.Fatalf("pop %d on shard 0 rejected inside the window", i)
		}
	}
	if _, ok := s.ReservePop(0, 2); ok {
		t.Fatal("pop beyond the resident floor's window must be rejected")
	}
	lag, any := s.ArgMinPopResident()
	if !any || lag != 1 {
		t.Fatalf("ArgMinPopResident = (%d, %v), want (1, true)", lag, any)
	}
	// Draining the laggard reopens shard 0.
	if _, ok := s.ReservePop(1, 2); !ok {
		t.Fatal("laggard pop rejected")
	}
	if _, ok := s.ReservePop(0, 2); !ok {
		t.Fatal("window must reopen once the laggard drains")
	}
	// An empty shard is not owed pops: once everything is drained the
	// window is trivially satisfied at any count.
	for j := 0; j < 2; j++ {
		for s.Resident(j) > 0 {
			s.ReservePop(j, 0)
		}
	}
	if _, ok := s.ReservePop(2, 2); !ok {
		t.Fatal("pop with no resident backlog anywhere must pass trivially")
	}
	s.UndoPop(2)
}

func TestRankEstimateQuiescent(t *testing.T) {
	s := NewStamps(3)
	// Shard 0: 5 resident (pushes 1..5). Shard 1: pushes 1..3, one popped.
	// Shard 2: empty.
	s.AddPush(0, 5)
	s.AddPush(1, 3)
	s.AddPop(1, 1)

	// Popping shard 0's first value (q=1): no other shard holds anything
	// older than push #1.
	if e := s.RankEstimate(0, 1); e != 0 {
		t.Fatalf("RankEstimate(0, 1) = %d, want 0", e)
	}
	// Popping shard 0's 5th value: shard 1 still holds min(3, 4)-1 = 2
	// older values.
	if e := s.RankEstimate(0, 5); e != 2 {
		t.Fatalf("RankEstimate(0, 5) = %d, want 2", e)
	}
	// Popping shard 1's 2nd value: shard 0 holds min(5, 1)-0 = 1 older.
	if e := s.RankEstimate(1, 2); e != 1 {
		t.Fatalf("RankEstimate(1, 2) = %d, want 1", e)
	}
}

func TestReserveConcurrentWithinSlack(t *testing.T) {
	// Hammer one Stamps from many goroutines with a window and verify the
	// invariant the windows are meant to keep: no shard's push count ever
	// ends more than window + (goroutines) beyond the minimum (the slack
	// term covers in-flight reservations).
	const (
		shards  = 4
		workers = 8
		perW    = 2000
		window  = int64(8)
	)
	s := NewStamps(shards)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w % shards
			for n := 0; n < perW; n++ {
				for {
					if _, ok := s.ReservePush(i, window); ok {
						break
					}
					i = s.ArgMinPush()
				}
			}
		}(w)
	}
	wg.Wait()
	min, max := s.PushCount(0), s.PushCount(0)
	for j := 1; j < shards; j++ {
		if v := s.PushCount(j); v < min {
			min = v
		} else if v > max {
			max = v
		}
	}
	if total := workers * perW; min+max != int64(total) && max-min > window+workers {
		t.Fatalf("push skew %d exceeds window %d + slack %d", max-min, window, workers)
	}
}

func TestSamplerPick(t *testing.T) {
	smp := NewSampler(42)
	seen := make(map[int]bool)
	var dst []int
	for trial := 0; trial < 200; trial++ {
		dst = smp.PickIn(5, 2, dst)
		if len(dst) != 2 || dst[0] == dst[1] {
			t.Fatalf("PickIn(5, 2) = %v, want 2 distinct indices", dst)
		}
		for _, c := range dst {
			if c < 0 || c >= 5 {
				t.Fatalf("PickIn returned out-of-range index %d", c)
			}
			seen[c] = true
		}
	}
	if len(seen) != 5 {
		t.Fatalf("200 draws touched only %d of 5 shards", len(seen))
	}
	// d >= n degenerates to the full scan.
	dst = smp.PickIn(5, 9, dst)
	if len(dst) != 5 {
		t.Fatalf("PickIn(5, 9) = %v, want all 5", dst)
	}
}
