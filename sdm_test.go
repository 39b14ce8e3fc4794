package sdm

import (
	"math"
	"testing"
)

// TestQuickstartFlow exercises the public facade end to end: build a
// scaled model, open an SDM store, serve queries, and validate against
// flat pooling.
func TestQuickstartFlow(t *testing.T) {
	inst, err := Build(benchModel(), 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := inst.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	store, err := Open(inst, tables, Config{
		SMTech: OptaneSSD,
		Ring:   RingConfig{SGL: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(inst, WorkloadConfig{Seed: 1, NumUsers: 50})
	if err != nil {
		t.Fatal(err)
	}
	now := store.LoadDone()
	for i := 0; i < 10; i++ {
		q := gen.Next()
		outs := store.AllocOutputs(q)
		res, err := store.PoolQuery(now, q, outs)
		if err != nil {
			t.Fatal(err)
		}
		if res.CPUTime <= 0 {
			t.Fatal("CPU accounting missing")
		}
		for oi, op := range q.Ops {
			want := make([]float32, inst.Tables[op.Table].Dim)
			for b, pool := range op.Pools {
				if err := tables[op.Table].Pool(want, pool); err != nil {
					t.Fatal(err)
				}
				for k := range want {
					if math.Abs(float64(outs[oi][b][k]-want[k])) > 1e-4 {
						t.Fatalf("facade output mismatch at op %d", oi)
					}
				}
			}
		}
	}
}

func TestFacadeConstants(t *testing.T) {
	if len(Catalog()) != 5 {
		t.Fatal("catalog should expose the 5 Table 1 technologies")
	}
	if Spec(OptaneSSD).MaxIOPS != 4e6 {
		t.Fatal("Optane spec passthrough")
	}
	for _, mk := range []func() ModelConfig{M1, M2, M3} {
		if err := mk().Validate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, sku := range []HostSpec{HWL(), HWS(), HWSS(), HWAN(), HWAO(), HWF()} {
		if sku.Name == "" || sku.Cores <= 0 {
			t.Fatalf("bad SKU %+v", sku)
		}
	}
}

// TestHostFacade runs the serving path through the facade: one host,
// measured as a fleet of one.
func TestHostFacade(t *testing.T) {
	inst, err := Build(benchModel(), 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := inst.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := BuildFleet(inst, tables, FleetSpec{
		Hosts: 1, Store: &Config{Ring: RingConfig{SGL: true}}, Host: HostConfig{Spec: HWSS(), InterOp: true},
		Router: NewRoundRobin(), Fleet: FleetConfig{Seed: 3}, Workload: WorkloadConfig{Seed: 3, NumUsers: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Run(25, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.AchievedQPS <= 0 || res.Latency.P95() <= 0 {
		t.Fatalf("bad result %v", res)
	}
}
