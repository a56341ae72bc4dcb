package fabric

import (
	"testing"
	"time"
)

// buildBluefieldTopo builds the Figure 2b topology: NIC ASIC and ARM CPU
// behind an internal PCIe switch, host root complex and GPU on the host
// fabric.
func buildBluefieldTopo() (*Fabric, *Device, *Device, *Device) {
	f := New()
	nic := f.AddDevice("nic-asic", nil)
	arm := f.AddDevice("arm", nil)
	gpu := f.AddDevice("gpu0", nil)
	host := f.AddDevice("host-rc", nil)
	bfSwitch := f.AddSwitch("bf-pcie-switch")
	hostSwitch := f.AddSwitch("host-pcie-switch")
	lat, bw := 900*time.Nanosecond, 62e9
	f.Connect(nic, bfSwitch, 150*time.Nanosecond, bw)
	f.Connect(arm, bfSwitch, 150*time.Nanosecond, bw)
	f.Connect(bfSwitch, hostSwitch, lat, bw)
	f.Connect(host, hostSwitch, 150*time.Nanosecond, bw)
	f.Connect(gpu, hostSwitch, 150*time.Nanosecond, bw)
	return f, nic, gpu, arm
}

func TestRouting(t *testing.T) {
	f, nic, gpu, arm := buildBluefieldTopo()
	if d := f.Distance(nic, gpu); d != 3 {
		t.Fatalf("nic->gpu hops = %d, want 3 (nic->bfSwitch->hostSwitch->gpu)", d)
	}
	if d := f.Distance(arm, gpu); d != 3 {
		t.Fatalf("arm->gpu hops = %d, want 3", d)
	}
	if d := f.Distance(nic, arm); d != 2 {
		t.Fatalf("nic->arm hops = %d (both behind bf switch)", d)
	}
}

func TestTransferTimeSumsHopLatencyAndSerialization(t *testing.T) {
	f, nic, gpu, _ := buildBluefieldTopo()
	// Path nic->bfSwitch->hostSwitch->gpu: latencies 150ns+900ns+150ns, and
	// 1 KiB serializes in 132ns (truncated) on each 62 Gb/s hop.
	if got, want := f.TransferTime(nic, gpu, 1024), 1200*time.Nanosecond+3*132*time.Nanosecond; got != want {
		t.Fatalf("TransferTime(1 KiB) = %v, want %v", got, want)
	}
	if got, back := f.TransferTime(nic, gpu, 1024), f.TransferTime(gpu, nic, 1024); got != back {
		t.Fatalf("transit is not symmetric: %v there, %v back", got, back)
	}
}

func TestNoPathPanics(t *testing.T) {
	f := New()
	a := f.AddDevice("a", nil)
	b := f.AddDevice("b", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for disconnected nodes")
		}
	}()
	f.Distance(a, b)
}

func TestDuplicateNodePanics(t *testing.T) {
	f := New()
	f.AddDevice("x", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate node")
		}
	}()
	f.AddSwitch("x")
}

// Connect invalidates cached routes: a shortcut added after a lookup is
// taken by the next one.
func TestConnectInvalidatesRoutes(t *testing.T) {
	f, nic, gpu, _ := buildBluefieldTopo()
	if d := f.Distance(nic, gpu); d != 3 {
		t.Fatalf("nic->gpu hops = %d, want 3", d)
	}
	f.Connect(nic, gpu, 100*time.Nanosecond, 62e9)
	if d := f.Distance(nic, gpu); d != 1 {
		t.Fatalf("nic->gpu hops after a direct link = %d, want 1", d)
	}
}
