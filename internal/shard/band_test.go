package shard

import "testing"

func TestBandStampsReservation(t *testing.T) {
	s := NewStamps(8)
	if s.EdgeResident(true) != -1 || s.EdgeResident(false) != -1 {
		t.Fatal("fresh stamps must report no resident band")
	}

	s.AddPush(3, 1)
	s.AddPush(6, 1)
	if s.EdgeResident(true) != 3 || s.EdgeResident(false) != 6 {
		t.Fatalf("resident window = [%d, %d], want [3, 6]", s.EdgeResident(true), s.EdgeResident(false))
	}
	if s.Resident(3) != 1 || s.Resident(0) != 0 {
		t.Fatalf("Resident(3)=%d Resident(0)=%d, want 1/0", s.Resident(3), s.Resident(0))
	}

	// Min side: band 3 is the lowest resident, so popping band 6 skips 3
	// bands — rejected under bound 2, admitted (and estimated) under 3.
	if _, ok := s.ReserveBandPop(6, 2, true); ok {
		t.Fatal("ReserveBandPop(6, low, bound 2) must reject with band 3 resident")
	}
	if s.Resident(6) != 1 {
		t.Fatal("rejected reservation must undo its pop stamp")
	}
	if inv, ok := s.ReserveBandPop(6, 3, true); !ok || inv != 3 {
		t.Fatalf("ReserveBandPop(6, low, bound 3) = (%d, %v), want (3, true)", inv, ok)
	}
	s.UndoPop(6)

	// The claim holds the target band's own value out of the scan: band 3
	// popping itself sees no lower resident work, inversion 0, any bound.
	if inv, ok := s.ReserveBandPop(3, 0, true); !ok || inv != 0 {
		t.Fatalf("ReserveBandPop(3, low, bound 0) = (%d, %v), want (0, true)", inv, ok)
	}
	s.UndoPop(3)

	// Max side mirrors: band 6 is the highest resident, so popping band 3
	// reaches 3 bands past it.
	if _, ok := s.ReserveBandPop(3, 2, false); ok {
		t.Fatal("ReserveBandPop(3, high, bound 2) must reject with band 6 resident")
	}
	if inv, ok := s.ReserveBandPop(3, -1, false); !ok || inv != 3 {
		t.Fatalf("ReserveBandPop(3, high, unbounded) = (%d, %v), want (3, true)", inv, ok)
	}
	s.UndoPop(3)

	// UndoPush returns a failed push's stamp: band 6 stops looking
	// resident and the min-side scan past band 3 unblocks... at band 3.
	s.UndoPush(6)
	if s.EdgeResident(false) != 3 {
		t.Fatalf("EdgeResident(high) after UndoPush(6) = %d, want 3", s.EdgeResident(false))
	}
}

func TestSamplerPickIn(t *testing.T) {
	s := NewSampler(0x9e3779b97f4a7c15)
	var dst []int
	for n := 1; n <= 8; n++ {
		for d := 1; d <= n+2; d++ {
			dst = s.PickIn(n, d, dst)
			want := d
			if want > n {
				want = n // d >= n degenerates to all indices
			}
			if len(dst) != want {
				t.Fatalf("PickIn(n=%d, d=%d) returned %d picks, want %d", n, d, len(dst), want)
			}
			seen := make(map[int]bool, len(dst))
			for _, c := range dst {
				if c < 0 || c >= n {
					t.Fatalf("PickIn(n=%d, d=%d) produced out-of-range index %d", n, d, c)
				}
				if seen[c] {
					t.Fatalf("PickIn(n=%d, d=%d) produced duplicate index %d", n, d, c)
				}
				seen[c] = true
			}
		}
	}
	// The window width changes per call in DEPQ sweeps; distinct widths
	// back to back must stay in range.
	for _, n := range []int{5, 2, 9, 1, 3} {
		dst = s.PickIn(n, 2, dst)
		for _, c := range dst {
			if c < 0 || c >= n {
				t.Fatalf("width change: PickIn(n=%d) produced %d", n, c)
			}
		}
	}
}
