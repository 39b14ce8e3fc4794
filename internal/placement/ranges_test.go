package placement

import (
	"reflect"
	"testing"
)

func TestPackRangesGreedyOrder(t *testing.T) {
	items := []RangeItem{
		{Table: 0, Range: 0, Bytes: 100, Density: 5},
		{Table: 0, Range: 1, Bytes: 100, Density: 1},
		{Table: 1, Range: 0, Bytes: 100, Density: 9},
		{Table: 1, Range: WholeTable, Bytes: 300, Density: 3},
	}
	got := PackRangesWear(items, 350, WearBudget{})
	// Density order: 9, 5, then the whole-table item (300 bytes) exceeds
	// the remaining 150 — the greedy skips (not truncates) it and still
	// takes the density-1 range behind it.
	want := []int{2, 0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selection %v, want %v", got, want)
	}
}

func TestPackRangesDeterministicTies(t *testing.T) {
	mk := func() []RangeItem {
		return []RangeItem{
			{Table: 2, Range: 1, Bytes: 10, Density: 4},
			{Table: 1, Range: 0, Bytes: 10, Density: 4},
			{Table: 1, Range: 2, Bytes: 10, Density: 4},
		}
	}
	got := PackRangesWear(mk(), 20, WearBudget{})
	// Ties break (Table, Range) ascending regardless of input order.
	want := []int{1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selection %v, want %v", got, want)
	}
	shuffled := []RangeItem{mk()[2], mk()[0], mk()[1]}
	got2 := PackRangesWear(shuffled, 20, WearBudget{})
	for i, idx := range got2 {
		if shuffled[idx] != mk()[want[i]] {
			t.Fatalf("tie-break not input-order independent: %v", got2)
		}
	}
}

func TestPackRangesWearDiscountsChurn(t *testing.T) {
	// Two candidates of equal footprint: the hotter one is a non-resident
	// challenger whose selection implies a demote write (DemoteBytes),
	// the cooler one is a resident incumbent that costs nothing. With a
	// tight window budget the wear discount re-ranks them.
	items := []RangeItem{
		{Table: 0, Range: 0, Bytes: 100, Density: 5, DemoteBytes: 100}, // hot but churny
		{Table: 1, Range: 0, Bytes: 100, Density: 4},                   // cooler, stable
	}
	// No wear budget: pure density order.
	if got := PackRangesWear(items, 100, WearBudget{}); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("wear-free selection %v, want [0]", got)
	}
	// Budget 50 < DemoteBytes: the challenger's score is discounted to
	// 5·50/150 = 1.67 < 4 — the stable item out-ranks it and takes the
	// DRAM budget.
	if got := PackRangesWear(items, 100, WearBudget{WindowBytes: 50}); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("wear-budgeted selection %v, want [1]", got)
	}
	// A generous budget keeps the density order.
	if got := PackRangesWear(items, 100, WearBudget{WindowBytes: 1 << 20}); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("generous-budget selection %v, want [0]", got)
	}
	// Spend counts against the window: budget 1 MiB with 1 MiB already
	// spent behaves like an exhausted window.
	exhausted := WearBudget{WindowBytes: 1 << 20, SpentBytes: 1 << 20}
	if got := PackRangesWear(items, 100, exhausted); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("exhausted-window selection %v, want [1]", got)
	}
}

func TestPackRangesWearRanksNotForbids(t *testing.T) {
	// The wear term re-ranks write-costing candidates but never forbids
	// them while budget remains: a demote cost larger than one window's
	// budget is expensive (heavily discounted), not impossible — the
	// actuator spreads its writes across windows.
	items := []RangeItem{
		{Table: 0, Range: 0, Bytes: 10, Density: 9, DemoteBytes: 60},
		{Table: 1, Range: 0, Bytes: 10, Density: 8, DemoteBytes: 60},
		{Table: 2, Range: 0, Bytes: 10, Density: 7}, // free: already resident
	}
	got := PackRangesWear(items, 100, WearBudget{WindowBytes: 50})
	// Discounted scores: item 2 ranks first (7 undiscounted beats
	// 9·50/110 = 4.1 and 8·50/110 = 3.6), but both churny items still
	// make the selection — their cost exceeds the window, yet they stay
	// eligible.
	if !reflect.DeepEqual(got, []int{2, 0, 1}) {
		t.Fatalf("selection %v, want [2 0 1]", got)
	}
	// Once the window is spent, write-costing candidates drop out while
	// free ones still pack.
	spent := PackRangesWear(items, 100, WearBudget{WindowBytes: 50, SpentBytes: 50})
	if !reflect.DeepEqual(spent, []int{2}) {
		t.Fatalf("exhausted-window selection %v, want [2]", spent)
	}
}

func TestPackRangesWearZeroBudgetIdentical(t *testing.T) {
	// Under the zero WearBudget the selection is the pure density greedy
	// (TestPackRangesGreedyOrder's) even when items carry DemoteBytes.
	items := []RangeItem{
		{Table: 0, Range: 0, Bytes: 100, Density: 5, DemoteBytes: 1 << 30},
		{Table: 0, Range: 1, Bytes: 100, Density: 1, DemoteBytes: 1 << 30},
		{Table: 1, Range: 0, Bytes: 100, Density: 9, DemoteBytes: 1 << 30},
		{Table: 1, Range: WholeTable, Bytes: 300, Density: 3},
	}
	if got, want := PackRangesWear(items, 350, WearBudget{}), []int{2, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("zero wear budget diverged: %v vs %v", got, want)
	}
}

func TestPackRangesEdges(t *testing.T) {
	if got := PackRangesWear(nil, 100, WearBudget{}); len(got) != 0 {
		t.Fatalf("empty items selected %v", got)
	}
	items := []RangeItem{
		{Table: 0, Range: 0, Bytes: 10, Density: 0},
		{Table: 0, Range: 1, Bytes: 10, Density: -1},
	}
	if got := PackRangesWear(items, 100, WearBudget{}); len(got) != 0 {
		t.Fatalf("zero/negative density selected %v", got)
	}
	items[0].Density = 1
	if got := PackRangesWear(items, 0, WearBudget{}); len(got) != 0 {
		t.Fatalf("zero budget selected %v", got)
	}
	if got := PackRangesWear(items, 9, WearBudget{}); len(got) != 0 {
		t.Fatalf("budget below smallest item selected %v", got)
	}
}
