package mlp

import "testing"

func TestFLOPsValidation(t *testing.T) {
	if _, err := FLOPs([]int{8}); err == nil {
		t.Fatal("single width should fail")
	}
	if _, err := FLOPs([]int{8, 0}); err == nil {
		t.Fatal("zero width should fail")
	}
}

func TestFLOPs(t *testing.T) {
	got, err := FLOPs([]int{10, 20, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*(10*20+20*5) {
		t.Fatalf("FLOPs %d", got)
	}
}

func TestCostModel(t *testing.T) {
	if CostModel(1e9, 1e12) != 1e-3 {
		t.Fatal("cost model arithmetic")
	}
	if CostModel(1e9, 0) != 0 {
		t.Fatal("zero rate should give 0")
	}
}
