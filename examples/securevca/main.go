// Secure computing on the Intel VCA (§6.2 of the paper): an SGX enclave on a
// VCA node serves AES-GCM-encrypted multiply requests. With Lynx, the
// enclave's I/O runs over an mqueue in mapped memory (the ~20-line I/O
// library is small enough to live inside the trusted computing base);
// the baseline tunnels through the host network bridge and the VCA's kernel
// stack, at ~4x the latency.
//
//	go run ./examples/securevca
package main

import (
	"fmt"
	"time"

	"lynx"
	"lynx/internal/apps/secure"
	"lynx/internal/workload"
)

const payload = workload.SeqBytes + secure.CipherSize

func main() {
	cluster := lynx.NewCluster()
	server := cluster.NewMachine("server1", 6)
	bf := server.AttachBlueField("bf1")
	vca := server.AddVCA("vca0")
	client := cluster.AddClient("client1")

	key := []byte("0123456789abcdef")
	enclaveKey, err := secure.NewCipher(key) // never leaves the enclave
	must(err)
	clientKey, err := secure.NewCipher(key)
	must(err)

	srv := cluster.NewServer(bf.Platform(7))
	h, err := srv.Register(vca, lynx.QueueConfig{
		Kind: lynx.ServerQueue, Slots: 16, SlotSize: payload + 16,
	}, 1)
	must(err)
	svc, err := srv.AddService(lynx.UDP, 7000, nil, 1, h)
	must(err)

	q := h.AccelQueues()[0]
	enclave := vca.NewEnclave()
	computeTime := cluster.Params().SecureComputeService
	served := 0
	cluster.Spawn("vca-node0", func(p *lynx.Proc) {
		for {
			m := q.Recv(p)
			if len(m.Payload) < payload {
				continue
			}
			resp := make([]byte, payload)
			copy(resp, m.Payload[:workload.SeqBytes])
			var out []byte
			enclave.ECall(p, computeTime, func() {
				// Real AES-GCM decrypt -> multiply -> encrypt, inside the
				// enclave boundary.
				if o, err := secure.EnclaveCompute(enclaveKey, m.Payload[workload.SeqBytes:payload]); err == nil {
					out = o
				}
			})
			if out == nil {
				continue
			}
			copy(resp[workload.SeqBytes:], out)
			if q.Send(p, uint16(m.Slot), resp) != nil {
				return
			}
			served++
		}
	})
	must(srv.Start())

	// Drive 1K req/s (the paper's load).
	res := cluster.MeasureLoad(lynx.LoadConfig{
		Proto: workload.UDP, Target: svc.Addr(), Payload: payload,
		Body: func(seq uint64, buf []byte) {
			copy(buf[workload.SeqBytes:], clientKey.Seal(uint32(seq%1000)))
		},
		Clients: 1, RatePerSec: 1000,
		Duration: 200 * time.Millisecond, Warmup: 40 * time.Millisecond,
	}, client)

	fmt.Println("SGX secure-multiply server on Intel VCA, via Lynx mqueues:")
	fmt.Printf("  %v (served=%d)\n", res, served)
	fmt.Printf("  p90 latency %v — paper: 56µs, 4.3x below the host-bridge baseline\n", res.Hist.P90())

	// Demonstrate the crypto is real: round-trip one value by hand.
	sealed := clientKey.Seal(6)
	opened, err := secure.EnclaveCompute(enclaveKey, sealed)
	must(err)
	v, err := clientKey.Open(opened)
	must(err)
	fmt.Printf("  enclave computes for real: Enc(6) -> enclave -> Dec = %d (6 x %d)\n", v, secure.Multiplier)
	cluster.Close()
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
