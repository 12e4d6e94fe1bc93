package ipfrag

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSplitEthernet8K(t *testing.T) {
	// The paper: an 8 KB RPC is ~6 IP fragments on an Ethernet.
	frags := Split(8192+160, 1480) // payload + RPC/NFS header overhead
	if len(frags) != 6 {
		t.Fatalf("8K RPC on Ethernet = %d fragments, want 6", len(frags))
	}
}

func TestSplitExact(t *testing.T) {
	frags := Split(1480, 1480)
	if len(frags) != 1 || frags[0].More || frags[0].Len != 1480 {
		t.Fatalf("frags = %+v", frags)
	}
}

func TestSplitZero(t *testing.T) {
	frags := Split(0, 1480)
	if len(frags) != 1 || frags[0].Len != 0 || frags[0].More {
		t.Fatalf("frags = %+v", frags)
	}
}

func TestSplitProperty(t *testing.T) {
	f := func(total uint16, mtu uint16) bool {
		m := int(mtu)%4000 + 8
		frags := Split(int(total), m)
		// Coverage is contiguous, in order, complete, and respects MTU.
		off := 0
		for i, fr := range frags {
			if fr.Off != off || fr.Len > m {
				return false
			}
			if fr.Len == 0 && int(total) != 0 {
				return false
			}
			off += fr.Len
			if (i < len(frags)-1) != fr.More {
				return false
			}
		}
		return off == int(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReassemblyComplete(t *testing.T) {
	r := NewReassembler(15 * time.Second)
	k := Key{Src: 1, ID: 42}
	frags := Split(5000, 1480)
	for i, f := range frags {
		done := r.Add(k, f, 0)
		if done != (i == len(frags)-1) {
			t.Fatalf("fragment %d: done = %v", i, done)
		}
	}
	if r.Pending() != 0 {
		t.Fatalf("pending = %d after completion", r.Pending())
	}
}

func TestReassemblyOutOfOrder(t *testing.T) {
	r := NewReassembler(15 * time.Second)
	k := Key{Src: 1, ID: 1}
	frags := Split(5000, 1480)
	// Deliver last first.
	if r.Add(k, frags[len(frags)-1], 0) {
		t.Fatal("complete after only the last fragment")
	}
	for i := 0; i < len(frags)-2; i++ {
		if r.Add(k, frags[i], 0) {
			t.Fatalf("complete too early at %d", i)
		}
	}
	if !r.Add(k, frags[len(frags)-2], 0) {
		t.Fatal("not complete after all fragments")
	}
}

func TestReassemblyLostFragmentNeverCompletes(t *testing.T) {
	r := NewReassembler(15 * time.Second)
	k := Key{Src: 1, ID: 7}
	frags := Split(8192, 1480)
	for i, f := range frags {
		if i == 2 {
			continue // lost in transit
		}
		if r.Add(k, f, 0) {
			t.Fatal("completed despite lost fragment")
		}
	}
	if r.Pending() != 1 {
		t.Fatalf("pending = %d", r.Pending())
	}
	if n := r.Expire(20 * time.Second); n != 1 {
		t.Fatalf("Expire = %d", n)
	}
	if r.Expired != 1 || r.Pending() != 0 {
		t.Fatalf("Expired=%d Pending=%d", r.Expired, r.Pending())
	}
}

func TestReassemblyInterleaved(t *testing.T) {
	r := NewReassembler(15 * time.Second)
	a, b := Key{1, 10}, Key{2, 10}
	fa := Split(3000, 1480)
	fb := Split(2000, 1480)
	r.Add(a, fa[0], 0)
	r.Add(b, fb[0], 0)
	if !r.Add(b, fb[1], 0) {
		t.Fatal("b incomplete")
	}
	if r.Add(a, fa[1], 0) {
		t.Fatal("a complete too early")
	}
	if !r.Add(a, fa[2], 0) {
		t.Fatal("a incomplete")
	}
}

func TestStaleStateRestarts(t *testing.T) {
	r := NewReassembler(time.Second)
	k := Key{1, 5}
	frags := Split(3000, 1480)
	r.Add(k, frags[0], 0)
	// Long after timeout, the "same" datagram id arrives again; old state
	// must not pollute the new attempt.
	if r.Add(k, frags[0], 5*time.Second) {
		t.Fatal("complete from stale state")
	}
	if r.Expired != 1 {
		t.Fatalf("Expired = %d", r.Expired)
	}
	r.Add(k, frags[1], 5*time.Second)
	if !r.Add(k, frags[2], 5*time.Second) {
		t.Fatal("fresh attempt did not complete")
	}
}

// TestReassemblyDuplicateFragments: a duplicated fragment (the network
// copied a frame) must not complete a datagram early or corrupt the
// coverage accounting — span-based coverage absorbs repeats.
func TestReassemblyDuplicateFragments(t *testing.T) {
	r := NewReassembler(15 * time.Second)
	k := Key{Src: 3, ID: 9}
	frags := Split(5000, 1480)
	for i, f := range frags[:len(frags)-1] {
		for rep := 0; rep < 3; rep++ { // every fragment arrives thrice
			if r.Add(k, f, 0) {
				t.Fatalf("completed early at fragment %d repeat %d", i, rep)
			}
		}
	}
	if !r.Add(k, frags[len(frags)-1], 0) {
		t.Fatal("not complete after all fragments")
	}
	if r.Pending() != 0 {
		t.Fatalf("pending = %d after completion", r.Pending())
	}
	// A late straggler duplicate after completion starts fresh state and
	// must never complete on its own.
	if r.Add(k, frags[0], 0) {
		t.Fatal("lone duplicate completed a datagram")
	}
}

// TestReassemblyOverlappingFragments: overlapping spans (retransmitted
// datagram refragmented on a different MTU path) count covered bytes once.
func TestReassemblyOverlappingFragments(t *testing.T) {
	r := NewReassembler(15 * time.Second)
	k := Key{Src: 4, ID: 11}
	// 3000-byte datagram: [0,2000) then an overlapping [1000,3000) tail.
	if r.Add(k, Frag{Off: 0, Len: 2000, More: true}, 0) {
		t.Fatal("complete after first span")
	}
	if !r.Add(k, Frag{Off: 1000, Len: 2000, More: false}, 0) {
		t.Fatal("overlapping tail did not complete the datagram")
	}
	// Overlap alone must not fake completion: [0,2000) + [500,1500) leaves
	// the tail missing.
	k2 := Key{Src: 4, ID: 12}
	r.Add(k2, Frag{Off: 0, Len: 2000, More: true}, 0)
	if r.Add(k2, Frag{Off: 500, Len: 1000, More: true}, 0) {
		t.Fatal("interior overlap completed an uncovered datagram")
	}
	if r.Pending() != 1 {
		t.Fatalf("pending = %d", r.Pending())
	}
}

// A datagram that fits one frame completes on arrival and leaves no state,
// even while a fragmented one from the same source is pending.
func TestUnfragmentedCompletesWithoutState(t *testing.T) {
	r := NewReassembler(15 * time.Second)
	big := Split(5000, 1480)
	r.Add(Key{Src: 1, ID: 1}, big[0], 0)
	for id := uint32(2); id < 10; id++ {
		if !r.Add(Key{Src: 1, ID: id}, Frag{Off: 0, Len: 900}, 0) {
			t.Fatalf("unfragmented datagram %d did not complete", id)
		}
	}
	if r.Pending() != 1 || len(r.free) != 0 {
		t.Fatalf("pending = %d, free = %d; want only the fragmented datagram", r.Pending(), len(r.free))
	}
}

// A state recycled from a completed datagram starts with no coverage: the
// first and last fragments of the next datagram of the same size do not
// complete it on the spans the previous one left.
func TestRecycledStateStartsEmpty(t *testing.T) {
	r := NewReassembler(15 * time.Second)
	frags := Split(5000, 1480)
	for _, f := range frags {
		r.Add(Key{Src: 1, ID: 1}, f, 0)
	}
	if len(r.free) != 1 {
		t.Fatalf("free = %d after a completion, want 1", len(r.free))
	}
	next := Key{Src: 1, ID: 2}
	if r.Add(next, frags[0], 0) || r.Add(next, frags[len(frags)-1], 0) {
		t.Fatal("a recycled state completed on its previous datagram's spans")
	}
	for _, f := range frags[1 : len(frags)-1] {
		r.Add(next, f, 0)
	}
	if r.Pending() != 0 {
		t.Fatalf("pending = %d after every fragment", r.Pending())
	}
}

// Expire frees the states it drops, and the next fragmented datagrams reuse
// them instead of allocating. (A count, so a legitimate gate.)
func TestAllocBudgetExpireRecycles(t *testing.T) {
	r := NewReassembler(time.Second)
	frags := Split(5000, 1480)
	for id := uint32(1); id <= 3; id++ {
		r.Add(Key{Src: 1, ID: id}, frags[0], 0)
	}
	if n := r.Expire(2 * time.Second); n != 3 || r.Pending() != 0 || len(r.free) != 3 {
		t.Fatalf("Expire = %d, pending %d, free %d; want 3, 0, 3", n, r.Pending(), len(r.free))
	}
	if got := testing.AllocsPerRun(10, func() {
		r.Add(Key{Src: 2, ID: 1}, frags[0], 3*time.Second)
		r.Add(Key{Src: 2, ID: 1}, frags[1], 3*time.Second)
		r.Expire(5 * time.Second)
	}); got > 0 {
		t.Errorf("%.1f allocations per fragmented datagram on recycled state, budget 0", got)
	}
}
