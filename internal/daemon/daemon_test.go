package daemon

import (
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/coordspace"
	"repro/internal/vivaldi"
	"repro/internal/wire"
)

func netResolve(s string) (*net.UDPAddr, error) { return net.ResolveUDPAddr("udp", s) }

// pendingSent reads an in-flight probe's send timestamp (test helper).
func (n *Node) pendingSent(seq uint32) int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pending[seq].sentNano
}

// startMesh launches n fully meshed daemons whose responses are delayed
// according to rtt(i,j), emulating the topology on loopback.
func startMesh(t *testing.T, n int, rtt func(i, j int) time.Duration, forge map[int]func(wire.ProbeResponse, string) wire.ProbeResponse) []*Node {
	t.Helper()
	nodes := make([]*Node, n)
	addrIdx := make(map[string]int)
	for i := 0; i < n; i++ {
		i := i
		cfg := Config{
			ProbeInterval: 15 * time.Millisecond,
			Seed:          int64(i + 1),
			Latency: func(peer string) time.Duration {
				j, ok := addrIdx[peer]
				if !ok {
					return 0
				}
				return rtt(i, j)
			},
		}
		if f, ok := forge[i]; ok {
			cfg.Forge = f
		}
		node, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for i, node := range nodes {
		addrIdx[node.Addr().String()] = i
	}
	for i, a := range nodes {
		for j, b := range nodes {
			if i != j {
				if err := a.AddPeer(b.Addr().String()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.Close()
		}
	})
	return nodes
}

func TestTwoNodesMeasureInjectedRTT(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	const rtt = 40 * time.Millisecond
	nodes := startMesh(t, 2, func(i, j int) time.Duration { return rtt }, nil)
	deadline := time.After(5 * time.Second)
	for {
		a, b := nodes[0], nodes[1]
		if a.Updates() > 40 && b.Updates() > 40 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("nodes did not exchange enough probes: %d/%d updates",
				a.Updates(), b.Updates())
		case <-time.After(50 * time.Millisecond):
		}
	}
	dist := nodes[0].DistanceTo(nodes[1].Coord())
	want := float64(rtt) / 1e6
	if dist < want*0.4 || dist > want*2.5 {
		t.Fatalf("predicted %0.1fms for injected %0.1fms RTT", dist, want)
	}
}

func TestMeshEmbedsLineTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	// Nodes on a line at 0, 30, 60 ms one-way positions.
	pos := []float64{0, 30, 60}
	rtt := func(i, j int) time.Duration {
		return time.Duration(math.Abs(pos[i]-pos[j]) * float64(time.Millisecond))
	}
	nodes := startMesh(t, 3, rtt, nil)

	deadline := time.After(8 * time.Second)
	for {
		done := true
		for _, n := range nodes {
			if n.Updates() < 80 {
				done = false
			}
		}
		if done {
			break
		}
		select {
		case <-deadline:
			t.Fatal("mesh did not converge in time")
		case <-time.After(100 * time.Millisecond):
		}
	}
	// The far pair (0,2) must be predicted clearly farther than (0,1).
	near := nodes[0].DistanceTo(nodes[1].Coord())
	far := nodes[0].DistanceTo(nodes[2].Coord())
	if far <= near {
		t.Fatalf("line topology not embedded: near=%.1fms far=%.1fms", near, far)
	}
	if far < 25 || far > 150 {
		t.Fatalf("far pair predicted %.1fms for 60ms injected", far)
	}
}

func TestForgedCoordinateDragsVictim(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	lie := []float64{4000, 4000}
	forge := map[int]func(wire.ProbeResponse, string) wire.ProbeResponse{
		1: func(honest wire.ProbeResponse, peer string) wire.ProbeResponse {
			honest.Vec = lie
			honest.Height = 0.1
			honest.Error = 0.01
			return honest
		},
	}
	nodes := startMesh(t, 2, func(i, j int) time.Duration { return 5 * time.Millisecond }, forge)
	deadline := time.After(5 * time.Second)
	for nodes[0].Updates() < 50 {
		select {
		case <-deadline:
			t.Fatalf("victim applied only %d updates", nodes[0].Updates())
		case <-time.After(50 * time.Millisecond):
		}
	}
	victim := nodes[0].Coord()
	space := coordspace.EuclideanHeight(2)
	if space.NormOf(victim) < 500 {
		t.Fatalf("victim at %v, not dragged toward the forged coordinate", victim)
	}
}

// TestLatencyFilterEngagesOverUDP pins hardening on the real-socket path:
// a LatencyWindow: 5 daemon probing a scripted loopback responder sees
// eight ~10 ms round trips and then one 300 ms spike. The per-peer median
// filter must absorb the spike — the node barely moves — which only
// happens if responses are attributed to their sender (an unattributed
// sample skips the filter and throws the node tens of milliseconds).
func TestLatencyFilterEngagesOverUDP(t *testing.T) {
	responder, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer responder.Close()
	n, err := New(Config{
		ProbeInterval: 30 * time.Millisecond,
		Vivaldi:       vivaldi.Config{Harden: vivaldi.Hardening{LatencyWindow: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.AddPeer(responder.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}

	// answer serves the node's next probe after delay, then waits for the
	// sample to be applied.
	buf := make([]byte, 2048)
	answer := func(delay time.Duration) {
		t.Helper()
		responder.SetReadDeadline(time.Now().Add(5 * time.Second))
		nb, from, err := responder.ReadFromUDP(buf)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := wire.Decode(buf[:nb])
		if err != nil {
			t.Fatal(err)
		}
		req := msg.(wire.ProbeRequest)
		time.Sleep(delay)
		want := n.Updates() + 1
		responder.WriteToUDP(wire.AppendResponse(nil, wire.ProbeResponse{
			Seq: req.Seq, EchoNano: req.SentNano, Error: 0.01, Height: 1, Vec: []float64{5, 0},
		}), from)
		for deadline := time.Now().Add(5 * time.Second); n.Updates() < want; {
			if time.Now().After(deadline) {
				t.Fatal("response was not applied")
			}
			time.Sleep(time.Millisecond)
		}
	}
	for k := 0; k < 8; k++ {
		answer(10 * time.Millisecond)
	}
	before := n.Coord()
	answer(300 * time.Millisecond)
	after := n.Coord()
	moved := math.Hypot(after.V[0]-before.V[0], after.V[1]-before.V[1]) + math.Abs(after.H-before.H)
	t.Logf("spike sample moved the node %.2f ms", moved)
	if moved > 10 {
		t.Fatalf("one 300 ms spike moved a LatencyWindow:5 node by %.1f ms: the filter did not engage", moved)
	}
}

func TestResponseValidationDropsForgedEcho(t *testing.T) {
	// A response whose echo timestamp does not match the in-flight probe
	// must be ignored — this is what makes RTT shortening impossible.
	n, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.mu.Lock()
	n.pending[7] = pendingProbe[string]{sentNano: 1000, peer: "1.2.3.4:5",
		deadlineNano: time.Now().Add(time.Hour).UnixNano()}
	n.mu.Unlock()

	before := n.Updates()
	resp := wire.ProbeResponse{Seq: 7, EchoNano: 999999, Error: 0.1, Vec: []float64{1, 2}}
	addr, _ := netResolve("1.2.3.4:5")
	n.handleResponse(resp, addr)
	if n.Updates() != before {
		t.Fatal("forged echo accepted")
	}
	// Correct echo but wrong peer: also dropped.
	resp.EchoNano = 1000
	wrong, _ := netResolve("9.9.9.9:9")
	n.handleResponse(resp, wrong)
	if n.Updates() != before {
		t.Fatal("response from wrong peer accepted")
	}
}

func TestDimensionMismatchIgnored(t *testing.T) {
	n, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.mu.Lock()
	n.pending[1] = pendingProbe[string]{sentNano: time.Now().Add(-10 * time.Millisecond).UnixNano(),
		peer: "1.2.3.4:5", deadlineNano: time.Now().Add(time.Hour).UnixNano()}
	n.mu.Unlock()
	addr, _ := netResolve("1.2.3.4:5")
	n.handleResponse(wire.ProbeResponse{
		Seq: 1, EchoNano: n.pendingSent(1), Error: 0.1, Vec: []float64{1, 2, 3, 4, 5},
	}, addr)
	if n.Updates() != 0 {
		t.Fatal("wrong-dimensionality response accepted")
	}
}

func TestCloseIdempotentAndFast(t *testing.T) {
	n, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("close took too long (leaked goroutine?)")
	}
}

func TestAddPeerValidation(t *testing.T) {
	n, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.AddPeer("not an address"); err == nil {
		t.Fatal("bad peer address accepted")
	}
	if err := n.AddPeer("127.0.0.1:9999"); err != nil {
		t.Fatal(err)
	}
}
