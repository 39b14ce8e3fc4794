package uring

import (
	"testing"

	"sdm/internal/blockdev"
	"sdm/internal/simclock"
)

// TestSubmitTimedReadMatchesSubmitSync drives two identically-seeded
// device+ring pairs with the same read sequence — one through the inline
// SubmitSync path, one through PeekInto + SubmitTimedRead — and requires
// bit-identical completion times, data, ring stats and device stats. This
// is the contract the deferred-timing query engine rests on.
func TestSubmitTimedReadMatchesSubmitSync(t *testing.T) {
	for _, sgl := range []bool{false, true} {
		// Nand has tail events and an outstanding cap, exercising both the
		// RNG and the software queue.
		spec := blockdev.Spec(blockdev.NandFlash)
		devA := blockdev.New(spec, 1<<22, nil, 11)
		devB := blockdev.New(spec, 1<<22, nil, 11)
		seed := make([]byte, 1<<22)
		for i := range seed {
			seed[i] = byte(i * 31)
		}
		if err := devA.PokeFrom(seed, 0); err != nil {
			t.Fatal(err)
		}
		if err := devB.PokeFrom(seed, 0); err != nil {
			t.Fatal(err)
		}
		ringA := NewSync(devA, Config{SGL: sgl})
		ringB := NewSync(devB, Config{SGL: sgl})

		bufA := make([]byte, 200)
		bufB := make([]byte, 200)
		now := simclock.Time(0)
		for i := 0; i < 300; i++ {
			off := int64((i * 7919) % (1 << 21))
			dA, errA := ringA.SubmitSync(now, bufA, off, false)
			errPeek := devB.PeekInto(bufB, off)
			dB, errB := ringB.SubmitTimedRead(now, len(bufB), off)
			if errA != nil || errB != nil || errPeek != nil {
				t.Fatalf("sgl=%v io %d: errs %v %v %v", sgl, i, errA, errPeek, errB)
			}
			if dA != dB {
				t.Fatalf("sgl=%v io %d: completion %d vs %d", sgl, i, dA, dB)
			}
			for j := range bufA {
				if bufA[j] != bufB[j] {
					t.Fatalf("sgl=%v io %d: data diverged at %d", sgl, i, j)
				}
			}
			now = (dA + now) / 2 // advance partially so queues stay busy
		}
		if ringA.Stats() != ringB.Stats() {
			t.Fatalf("sgl=%v ring stats diverged:\n%+v\n%+v", sgl, ringA.Stats(), ringB.Stats())
		}
		if devA.Stats() != devB.Stats() {
			t.Fatalf("sgl=%v device stats diverged:\n%+v\n%+v", sgl, devA.Stats(), devB.Stats())
		}
	}
}

// TestAccountReadBounds checks the timing half validates like the data half.
func TestAccountReadBounds(t *testing.T) {
	dev := blockdev.New(blockdev.Spec(blockdev.OptaneSSD), 4096, nil, 1)
	if _, err := dev.AccountRead(0, 4000, 200, false); err == nil {
		t.Fatal("out-of-range account must fail")
	}
	if err := dev.PeekInto(make([]byte, 200), 4000); err == nil {
		t.Fatal("out-of-range peek must fail")
	}
	dev.Close()
	if err := dev.PeekInto(make([]byte, 1), 0); err == nil {
		t.Fatal("closed device peek must fail")
	}
	if _, err := dev.AccountRead(0, 0, 1, false); err == nil {
		t.Fatal("closed device account must fail")
	}
}

// TestSubmitTimedWriteMatchesSubmitSync is the write-side contract, in the
// shape a store uses it: book a span of rows with SubmitTimedWrite (or
// SubmitTimedRead), then move them row by row on a load image with PokeRow
// (or read them with Row). Completion times, bytes, ring stats and device
// stats must equal SubmitSync on a flat device — on success, on an
// out-of-range span and on a closed device.
func TestSubmitTimedWriteMatchesSubmitSync(t *testing.T) {
	spec := blockdev.Spec(blockdev.NandFlash)
	const capacity, row, rows = 1 << 20, 100, 9
	const loaded = capacity / row
	devA := blockdev.New(spec, capacity, nil, 11)
	devB, err := blockdev.NewLoaded(spec, capacity, []blockdev.Stripe{{Src: make([]byte, loaded*row), RowBytes: row, Stride: 1, Rows: loaded}}, 11)
	if err != nil {
		t.Fatal(err)
	}
	ringA := NewSync(devA, Config{SGL: true})
	ringB := NewSync(devB, Config{SGL: true})
	src := make([]byte, row*rows)
	bufA := make([]byte, len(src))
	now := simclock.Time(0)
	step := func(i int, r0 int64, wantErr bool) {
		t.Helper()
		for j := range src {
			src[j] = byte(i + j*13)
		}
		off := r0 * row
		dA, errA := ringA.SubmitSync(now, src, off, true)
		dB, errB := ringB.SubmitTimedWrite(now, len(src), off)
		for r := int64(0); errB == nil && r < rows; r++ {
			errB = devB.PokeRow(0, r0+r, src[r*row:(r+1)*row])
		}
		if (errA != nil) != wantErr || (errB != nil) != wantErr || dA != dB {
			t.Fatalf("write %d: %v at %d vs %v at %d", i, errA, dA, errB, dB)
		}
		rA, errA := ringA.SubmitSync(dA, bufA, off, false)
		rB, errB := ringB.SubmitTimedRead(dB, len(src), off)
		for r := int64(0); errB == nil && r < rows; r++ {
			var b []byte
			if b, errB = devB.Row(0, r0+r); errB == nil && string(b) != string(bufA[r*row:(r+1)*row]) {
				t.Fatalf("read %d: row %d differs", i, r0+r)
			}
		}
		if (errA != nil) != wantErr || (errB != nil) != wantErr || rA != rB {
			t.Fatalf("read %d: %v at %d vs %v at %d", i, errA, rA, errB, rB)
		}
		now = (rA + now) / 2
	}
	for i := 0; i < 200; i++ {
		step(i, int64(i*7919)%(loaded-rows), false)
	}
	step(200, loaded-4, true) // out of range
	devA.Close()
	devB.Close()
	step(201, 0, true) // ErrClosed
	if ringA.Stats() != ringB.Stats() || ringA.Stats().Errors != 4 {
		t.Fatalf("ring stats diverged:\n%+v\n%+v", ringA.Stats(), ringB.Stats())
	}
	if devA.Stats() != devB.Stats() {
		t.Fatalf("device stats diverged:\n%+v\n%+v", devA.Stats(), devB.Stats())
	}
}
