package mqueue

import (
	"bytes"
	"testing"
	"time"

	"lynx/internal/check"
	"lynx/internal/sim"
)

// FuzzRingWraparound echoes a fuzz-chosen number of fuzz-sized payloads
// through a fuzz-shaped (but always small) ring, guaranteeing several full
// ring revolutions, with the mqueue invariant checks armed. Whatever the
// geometry, every payload must survive byte-identical and in FIFO order,
// every response must correlate to the right RX slot, and no ring-bounds or
// sequence invariant may trip.
func FuzzRingWraparound(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(24), []byte{1, 9, 40, 95, 2, 7})
	f.Add(uint8(3), uint8(1), uint8(50), []byte{0, 0, 0, 0, 0})
	f.Add(uint8(6), uint8(3), uint8(9), []byte{255, 128, 64, 32, 16, 8, 4, 2})
	f.Fuzz(func(t *testing.T, slotsRaw, sizeRaw, countRaw uint8, szs []byte) {
		if len(szs) == 0 {
			return
		}
		slots := 2 + int(slotsRaw)%7 // 2..8: small rings wrap quickly
		slotSize := HeaderBytes + 9 + int(sizeRaw)%56
		n := slots*2 + int(countRaw)%48 // always beyond one revolution
		ck := check.New()
		cfg := Config{Kind: ServerQueue, Slots: slots, SlotSize: slotSize, Check: ck}
		r := newRig(t, false, 1<<16)
		snicQ, err := New(r.region, 0, cfg, r.qp)
		if err != nil {
			t.Fatal(err)
		}
		prof := gpuProfile(r.params)
		prof.Check = ck
		accQ, err := Attach(r.region, 0, cfg, prof)
		if err != nil {
			t.Fatal(err)
		}
		payload := func(i int) []byte {
			sz := int(szs[i%len(szs)])%cfg.MaxPayload() + 1
			buf := make([]byte, sz)
			for j := range buf {
				buf[j] = byte(i + j)
			}
			return buf
		}
		r.s.Spawn("gpu", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				m := accQ.Recv(p)
				if err := accQ.Send(p, uint16(m.Slot), m.Payload); err != nil {
					t.Error(err)
					return
				}
			}
		})
		rcvd := 0
		var rxConsumed, txSeen uint64
		r.s.Spawn("snic", func(p *sim.Proc) {
			sent := 0
			for rcvd < n {
				if sent < n {
					if _, err := snicQ.Push(p, payload(sent), 0); err == nil {
						sent++
						continue
					}
				}
				if msg, ok := poll(p, snicQ); ok {
					if !bytes.Equal(msg.Payload, payload(rcvd)) {
						t.Errorf("response %d corrupted (%d bytes)", rcvd, len(msg.Payload))
					}
					if int(msg.Corr) != rcvd%slots {
						t.Errorf("response %d correlates RX slot %d, want %d", rcvd, msg.Corr, rcvd%slots)
					}
					rcvd++
				} else {
					p.Sleep(time.Microsecond)
				}
			}
			snicQ.Refresh(p)
			rxConsumed, txSeen = snicQ.Counters()
		})
		r.s.RunUntil(sim.Time(time.Second))
		r.s.Shutdown()
		if rcvd != n {
			t.Fatalf("echoed %d of %d messages (slots=%d slotSize=%d)", rcvd, n, slots, slotSize)
		}
		if rxConsumed != uint64(n) || txSeen != uint64(n) {
			t.Fatalf("counters rxConsumed=%d txSeen=%d after %d echoes", rxConsumed, txSeen, n)
		}
		if rep := ck.Finalize(); !rep.OK() {
			t.Fatalf("mqueue invariants violated (slots=%d slotSize=%d n=%d):\n%s",
				slots, slotSize, n, rep)
		}
	})
}
