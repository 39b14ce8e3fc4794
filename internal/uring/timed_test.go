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
		if _, err := devA.Write(0, seed, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := devB.Write(0, seed, 0); err != nil {
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

// TestAccountReadBounds checks the timing-only path validates like Read.
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
// shape the migration engine uses it: book the span with SubmitTimedWrite (or
// SubmitTimedRead), then move the bytes row by row with PokeFrom (or
// PeekInto). Completion times, media bytes, ring stats and device
// stats must equal the inline SubmitSync path — on success, on an
// out-of-range span and on a closed device.
func TestSubmitTimedWriteMatchesSubmitSync(t *testing.T) {
	spec := blockdev.Spec(blockdev.NandFlash)
	devA := blockdev.New(spec, 1<<20, nil, 11)
	devB := blockdev.New(spec, 1<<20, nil, 11)
	ringA := NewSync(devA, Config{SGL: true})
	ringB := NewSync(devB, Config{SGL: true})
	const row, rows = 100, 9
	src := make([]byte, row*rows)
	bufA, bufB := make([]byte, len(src)), make([]byte, len(src))
	now := simclock.Time(0)
	step := func(i int, off int64, wantErr bool) {
		t.Helper()
		for j := range src {
			src[j] = byte(i + j*13)
		}
		dA, errA := ringA.SubmitSync(now, src, off, true)
		dB, errB := ringB.SubmitTimedWrite(now, len(src), off)
		for r := 0; errB == nil && r < rows; r++ {
			errB = devB.PokeFrom(src[r*row:(r+1)*row], off+int64(r*row))
		}
		if (errA != nil) != wantErr || (errB != nil) != wantErr || dA != dB {
			t.Fatalf("write %d: %v at %d vs %v at %d", i, errA, dA, errB, dB)
		}
		rA, errA := ringA.SubmitSync(dA, bufA, off, false)
		rB, errB := ringB.SubmitTimedRead(dB, len(bufB), off)
		if errB == nil {
			errB = devB.PeekInto(bufB, off)
		}
		if (errA != nil) != wantErr || (errB != nil) != wantErr || rA != rB || string(bufA) != string(bufB) {
			t.Fatalf("read %d: %v at %d vs %v at %d", i, errA, rA, errB, rB)
		}
		now = (rA + now) / 2
	}
	for i := 0; i < 200; i++ {
		step(i, int64((i*7919)%(1<<19)), false)
	}
	step(200, 1<<20-10, true) // out of range
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
