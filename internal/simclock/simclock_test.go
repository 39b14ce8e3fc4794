package simclock

import (
	"container/heap"
	"slices"
	"testing"
	"time"

	"sdm/internal/xrand"
)

func TestTimeConversions(t *testing.T) {
	x := Time(1500 * time.Microsecond)
	if x.Seconds() != 0.0015 {
		t.Fatalf("Seconds %g", x.Seconds())
	}
	if x.Micros() != 1500 {
		t.Fatalf("Micros %g", x.Micros())
	}
	if x.Duration() != 1500*time.Microsecond {
		t.Fatalf("Duration %v", x.Duration())
	}
}

// refHeap is the container/heap reference TimeHeap is checked against.
type refHeap []Time

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(Time)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestTimeHeapProperties checks the one algorithm every ring, throttle and
// host in-flight set rests on, over seeded random inputs with many
// duplicate timestamps.
func TestTimeHeapProperties(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(300)
		draw := func() Time { return Time(rng.Intn(n/2 + 1)) } // narrow range forces duplicates

		// Pushes then pops: non-decreasing and equal to the sorted input.
		var h TimeHeap
		in := make([]Time, n)
		for i := range in {
			in[i] = draw()
			h.Push(in[i])
		}
		slices.Sort(in)
		for i, want := range in {
			if h.Len() != n-i || h.Min() != want {
				t.Fatalf("seed %d pop %d: len %d min %v, want len %d min %v", seed, i, h.Len(), h.Min(), n-i, want)
			}
			if got := h.PopMin(); got != want {
				t.Fatalf("seed %d pop %d: got %v, want %v", seed, i, got, want)
			}
		}

		// Interleaved pushes and pops agree with container/heap.
		var ref refHeap
		for op := 0; op < 4*n; op++ {
			if ref.Len() == 0 || rng.Intn(3) > 0 {
				x := draw()
				h.Push(x)
				heap.Push(&ref, x)
			} else if got, want := h.PopMin(), heap.Pop(&ref).(Time); got != want {
				t.Fatalf("seed %d op %d: popped %v, reference %v", seed, op, got, want)
			}
			if h.Len() != ref.Len() || (h.Len() > 0 && h.Min() != ref[0]) {
				t.Fatalf("seed %d op %d: len %d vs reference %d", seed, op, h.Len(), ref.Len())
			}
		}
	}
}

// TestTimeHeapSteadyStateAllocs: once grown, push/pop reuses the backing
// array — the reason TimeHeap exists instead of container/heap.
func TestTimeHeapSteadyStateAllocs(t *testing.T) {
	var h TimeHeap
	for i := 0; i < 64; i++ {
		h.Push(Time(64 - i))
	}
	next := Time(100)
	if allocs := testing.AllocsPerRun(1000, func() {
		h.PopMin()
		h.Push(next)
		next += 3
	}); allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %v per op", allocs)
	}
}
