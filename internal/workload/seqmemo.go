// Sequence memo. A pool's un-churned index sequence is a pure function of
// (Seed, entity, table, pooling factor): baseSequence seeds seqRNG from the
// first three, draws the pool length from the fourth, then draws the indices.
// The same seed always yields the same draws, so for one (entity, table) the
// sequence at a smaller pooling factor is a prefix of the sequence at a
// larger one. Popular users and items come back constantly (that is what the
// pooled-embedding cache of §4.4 lives on), so the generator keeps the
// sequences it has already derived and copies them instead of re-running
// ≈ 600 Zipf inversions and Feistel walks per query.

package workload

import (
	"math"

	"sdm/internal/model"
)

// seqMemoBytes is the fixed footprint of one Generator's sequence memo, all
// of it allocated in NewGenerator. At the benchmark's model shape (≈ 620
// indices per query) it holds ≈ 1000 user and ≈ 3000 item sequences per
// table, which serves more than four fifths of the pools of a 4000-user /
// 10 000-item population. More would serve more; 3 MiB is what the smallest
// benchmark fleet (68 MB of live heap) carries inside a 5 % heap budget.
const seqMemoBytes = 3 << 20

// seqSlotBytes is the size of a seqSlot (TestSequenceMemoFootprint checks).
const seqSlotBytes = 16

// seqSlot heads one memo slot: the entity whose sequence the slot holds, how
// many of its indices are stored (0 = empty), and whether it has been copied
// from since it was installed or last challenged.
type seqSlot struct {
	entity int64
	n      int32
	hit    bool
}

// claim reports whether entity may install its sequence in the slot, and
// clears the slot for it if so. A different entity's sequence that has been
// hit survives one challenge (second chance), so a popular entity is not
// thrown out by every passer-by that maps to its slot; the decision depends
// only on the draw history, so it is as deterministic as the stream.
func (s *seqSlot) claim(entity int64) bool {
	if s.entity != entity && s.hit {
		s.hit = false
		return false
	}
	*s = seqSlot{entity: entity}
	return true
}

// seqMemo is one table's share of the memo: direct-mapped by entity, one
// fixed-stride run of 32-bit indices per slot. A table whose Rows exceed 32
// bits gets no slots and is always recomputed.
type seqMemo struct {
	slots  []seqSlot
	idx    []uint32 // len(slots) × stride
	stride int      // longest sequence a slot holds
}

// slot returns the slot entity maps to and its first n stored indices, or
// nil when the table has no slots or a slot cannot hold n. Entities are
// Zipf ranks (or a bijection of them), so the plain remainder spreads them
// and gives the len(slots) hottest ranks of a stationary stream a slot each.
func (m *seqMemo) slot(entity int64, n int) (*seqSlot, []uint32) {
	if n > m.stride || len(m.slots) == 0 {
		return nil, nil
	}
	i := int(uint64(entity) % uint64(len(m.slots)))
	return &m.slots[i], m.idx[i*m.stride:][:n]
}

// newSeqMemos splits seqMemoBytes equally across the tables. A slot's
// stride is the longest un-boosted pool of its table (poolLen stays below
// 1.5 × the pooling factor; longer pools, e.g. under HotBoost, are
// recomputed).
func newSeqMemos(inst *model.Instance) []seqMemo {
	memos := make([]seqMemo, len(inst.Tables))
	for t, s := range inst.Tables {
		if s.Rows > math.MaxUint32 {
			continue
		}
		m := &memos[t]
		m.stride = int(1.5*s.PoolingFactor) + 1
		n := seqMemoBytes / len(memos) / (seqSlotBytes + 4*m.stride)
		m.slots = make([]seqSlot, n)
		m.idx = make([]uint32, n*m.stride)
	}
	return memos
}
