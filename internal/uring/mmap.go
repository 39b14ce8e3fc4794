package uring

import (
	"sdm/internal/blockdev"
	"sdm/internal/simclock"
)

// Mmap models the mmap alternative the paper rejected in §4.1: every miss
// reads and retains a whole 4 KB page in FM even for a 128 B row, so FM
// space is used ~32× less efficiently and access latency is ~3× higher
// (page-fault handling plus full-block transfer). It exists so the
// mmap-vs-DIRECT_IO trade-off can be measured rather than asserted.
type Mmap struct {
	dev *blockdev.Device
	// pageCache maps page number → resident page copy.
	pageCache map[int64][]byte
	// lru tracks page recency for eviction.
	lru      []int64
	maxPages int
	stats    MmapStats
}

// MmapStats counts page-cache behaviour.
type MmapStats struct {
	Accesses   uint64
	PageFaults uint64
	Evictions  uint64
	// ResidentBytes is the FM consumed by the page cache right now.
	ResidentBytes int64
}

const mmapPageSize = 4096

// NewMmap maps dev with an FM budget of fmBudget bytes for resident pages.
func NewMmap(dev *blockdev.Device, fmBudget int64) *Mmap {
	maxPages := int(fmBudget / mmapPageSize)
	if maxPages < 1 {
		maxPages = 1
	}
	return &Mmap{
		dev:       dev,
		pageCache: make(map[int64][]byte, maxPages),
		maxPages:  maxPages,
	}
}

// Stats returns a snapshot of the page-cache counters.
func (m *Mmap) Stats() MmapStats { return m.stats }

// Read copies [off, off+len(p)) into p, faulting pages as needed, and
// returns the virtual completion time.
func (m *Mmap) Read(now simclock.Time, p []byte, off int64) (simclock.Time, error) {
	m.stats.Accesses++
	done := now
	remaining := p
	cur := off
	for len(remaining) > 0 {
		page := cur / mmapPageSize
		inPage := int(cur - page*mmapPageSize)
		n := mmapPageSize - inPage
		if n > len(remaining) {
			n = len(remaining)
		}
		data, ok := m.pageCache[page]
		if !ok {
			m.stats.PageFaults++
			data = make([]byte, mmapPageSize)
			// A page fault performs a full block read (no SGL) plus
			// kernel fault-handling overhead (~2× the media time in
			// practice, yielding the paper's ~3× end-to-end factor).
			t, err := m.dev.AccountRead(done, page*mmapPageSize, mmapPageSize, false)
			if err != nil {
				return done, err
			}
			if err := m.dev.PeekInto(data, page*mmapPageSize); err != nil {
				return done, err
			}
			t += simclock.Time(2 * m.dev.Spec().MediaLatency)
			done = t
			m.insert(page, data)
		}
		copy(remaining[:n], data[inPage:inPage+n])
		remaining = remaining[n:]
		cur += int64(n)
	}
	return done, nil
}

func (m *Mmap) insert(page int64, data []byte) {
	if len(m.pageCache) >= m.maxPages {
		// Evict the least-recently inserted page (FIFO approximation of
		// kernel page reclaim; precision is irrelevant to the study).
		victim := m.lru[0]
		m.lru = m.lru[1:]
		delete(m.pageCache, victim)
		m.stats.Evictions++
		m.stats.ResidentBytes -= mmapPageSize
	}
	m.pageCache[page] = data
	m.lru = append(m.lru, page)
	m.stats.ResidentBytes += mmapPageSize
}
