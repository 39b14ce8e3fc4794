package core

import (
	"testing"

	"sdm/internal/uring"
	"sdm/internal/workload"
)

// TestInferenceEvalModeThroughStore exercises Table 2's second usecase:
// InferenceEval batches the user side too (B_U == B_I), which the paper
// notes is more sensitive to placement. The store must produce
// oracle-correct outputs for multi-pool user ops as well.
func TestInferenceEvalModeThroughStore(t *testing.T) {
	in, tables := fixture(t)
	s := openStore(t, in, tables, Config{Seed: 1, Ring: uring.Config{SGL: true}})
	g, err := workload.NewGenerator(in, workload.Config{Seed: 31, NumUsers: 40, EvalMode: true})
	if err != nil {
		t.Fatal(err)
	}
	qs := g.GenerateTrace(8)
	// Eval queries must batch the user side.
	for _, q := range qs {
		if len(q.Ops[0].Pools) != in.Config.ItemBatch {
			t.Fatalf("eval user op has %d pools, want %d", len(q.Ops[0].Pools), in.Config.ItemBatch)
		}
	}
	checkAgainstOracle(t, s, in, tables, qs)
}

// TestStoreDeterministicReplay verifies that two stores built from the same
// seeds produce identical virtual-time accounting for the same trace — the
// property every experiment's reproducibility rests on.
func TestStoreDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64) {
		in, tables := fixture(t)
		s := openStore(t, in, tables, Config{Seed: 1, Ring: uring.Config{SGL: true}})
		g, err := workload.NewGenerator(in, workload.Config{Seed: 17, NumUsers: 30})
		if err != nil {
			t.Fatal(err)
		}
		now := s.LoadDone()
		var lastIO uint64
		for i := 0; i < 15; i++ {
			q := g.Next()
			outs := s.AllocOutputs(q)
			res, err := s.PoolQuery(now, q, outs)
			if err != nil {
				t.Fatal(err)
			}
			lastIO = uint64(res.UserIODone)
		}
		return lastIO, s.Stats().SMReads
	}
	io1, reads1 := run()
	io2, reads2 := run()
	if io1 != io2 || reads1 != reads2 {
		t.Fatalf("replay diverged: io %d vs %d, reads %d vs %d", io1, io2, reads1, reads2)
	}
}
