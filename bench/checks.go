package main

import (
	"fmt"
	"math"

	"sdm/internal/core"
	"sdm/internal/simclock"
	"sdm/internal/workload"
)

// checkDeterminism runs the workload's first batches on two fresh fleets
// over the same model, one with a single host worker and one with nproc,
// and compares every virtual result.
func checkDeterminism(rep *report, base *fixture, batches, n int) error {
	s := base.spec
	var digests []uint64
	for _, workers := range []int{1, nproc()} {
		fx, err := newFixture(s, base.inst, base.tables, base.seed, workers)
		if err != nil {
			return err
		}
		d := uint64(fnvOffset)
		for i := 0; i < batches; i++ {
			res, err := fx.runBatch(s.qps, n)
			rep.ops(n, 0)
			if err != nil {
				rep.ops(0, n)
				return err
			}
			d = resultDigest(d, res)
		}
		digests = append(digests, d)
	}
	rep.check(digests[0] == digests[1], "sim_digest differs: HostWorkers 1 %016x, %d %016x", digests[0], nproc(), digests[1])
	return nil
}

// checkOracle pools a sample of generated queries through a fresh replica
// store and compares every pooled vector with the flat embedding table's
// own Pool, within the rounding of summing the same dequantized rows in a
// different order.
func checkOracle(rep *report, base *fixture, queries int) error {
	s := base.spec
	hosts, _, _, err := s.hostSet(base.inst, base.tables, base.seed)
	if err != nil {
		return err
	}
	st := hosts[0].Store()
	gen, err := workload.NewGenerator(base.inst, s.workloadConfig(base.seed))
	if err != nil {
		return err
	}
	nUser := base.inst.Config.NumUserTables
	var outBuf core.OutputBuf
	now := st.LoadDone()
	for i := 0; i < queries; i++ {
		q := gen.NextShared()
		outs := st.OutputsFor(q, &outBuf)
		ops, oo := q.Ops[:nUser], outs[:nUser]
		if _, err := st.PoolOps(now, ops, oo); err != nil {
			rep.ops(1, 1)
			return fmt.Errorf("oracle PoolOps: %w", err)
		}
		now += simclock.Time(1e6)
		for k, op := range ops {
			want := make([]float32, base.inst.Tables[op.Table].Dim)
			for b, pool := range op.Pools {
				if err := base.tables[op.Table].Pool(want, pool); err != nil {
					return err
				}
				rep.check(closeVec(oo[k][b], want, len(pool)),
					"query %d table %d pool %d differs from the embedding oracle", i, op.Table, b)
			}
		}
	}
	return nil
}

// closeVec reports whether got equals want within float32 summation
// rounding over n addends.
func closeVec(got, want []float32, n int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		tol := 1e-5 * float64(n+1) * (1 + math.Abs(float64(want[i])))
		if math.Abs(float64(got[i])-float64(want[i])) > tol {
			return false
		}
	}
	return true
}
