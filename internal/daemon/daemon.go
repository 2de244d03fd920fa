// Package daemon runs Vivaldi as a live network service: a node probes
// its peers on a timer, measures round-trip times against in-flight probe
// state, and feeds the samples into the same vivaldi.Node state machine
// the simulator uses. This is the "coordinate system as an always-on
// service" deployment the paper's introduction motivates, and the attack
// surface it analyzes: a malicious daemon can forge the coordinate and
// error it reports (Forge hook) and delay its responses, but it can never
// shorten a measured RTT — probers only accept responses that echo the
// exact timestamp and sequence number of an in-flight probe.
//
// The daemon exists in two forms over one shared protocol core
// (protocol.go):
//
//   - Node binds a real UDP socket and runs on goroutines and the wall
//     clock (deployed by cmd/vna-node). Its Latency hook doubles as a
//     topology emulator on loopback: tests give every node a synthetic
//     RTT function and the daemons converge to coordinates predicting it.
//   - SimNode speaks the same wire protocol over an internal/simnet
//     virtual network and clock, with no goroutines at all — every send,
//     delivery and timer is a deterministic simulation event. It is what
//     the engine's live execution backend boots per host, which is how
//     whole attack scenarios replay over real message exchange
//     bit-for-bit reproducibly.
package daemon

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/coordspace"
	"repro/internal/randx"
	"repro/internal/vivaldi"
	"repro/internal/wire"
)

// Config configures a daemon node. Zero values take defaults.
type Config struct {
	// Listen is the UDP address to bind (default "127.0.0.1:0").
	Listen string

	// Vivaldi configures the embedded algorithm; its zero value uses the
	// paper's parameters in a 2-D + height space, the model the Vivaldi
	// authors found best for live deployments.
	Vivaldi vivaldi.Config

	// ProbeInterval is the time between outgoing probes (default 100 ms).
	ProbeInterval time.Duration

	// ProbeTimeout discards in-flight probes that were never answered
	// (default 3 s).
	ProbeTimeout time.Duration

	// Latency, when set, delays this node's *responses* by the returned
	// duration (full round-trip worth). It emulates network distance on
	// loopback and is also how a malicious node delays probes.
	Latency func(peer netip) time.Duration

	// Forge, when set, rewrites the coordinate state this node reports —
	// the malicious hook mirroring vivaldi.Tap for the live path.
	Forge func(honest wire.ProbeResponse, peer netip) wire.ProbeResponse

	// Seed makes peer selection deterministic (default 1).
	Seed int64
}

// netip is the peer address form handed to hooks.
type netip = string

func (c Config) withDefaults() Config {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.Vivaldi.Space.Dims == 0 {
		c.Vivaldi.Space = coordspace.EuclideanHeight(2)
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 100 * time.Millisecond
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = 3 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Node is a live Vivaldi daemon.
type Node struct {
	cfg  Config
	conn *net.UDPConn

	mu       sync.Mutex
	vn       *vivaldi.Node
	rng      *rand.Rand
	peers    []*net.UDPAddr
	pending  map[uint32]pendingProbe[string]
	seq      uint32
	updates  int
	closed   bool
	closedCh chan struct{}

	wg sync.WaitGroup
}

// New starts a daemon node: binds the socket and launches its probe and
// read loops. Close must be called to release them.
func New(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	addr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("daemon: resolve %q: %w", cfg.Listen, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("daemon: listen: %w", err)
	}
	n := &Node{
		cfg:      cfg,
		conn:     conn,
		vn:       vivaldi.NewNode(cfg.Vivaldi, randx.New(cfg.Seed)),
		rng:      randx.NewDerived(cfg.Seed, "daemon", 0),
		pending:  make(map[uint32]pendingProbe[string]),
		closedCh: make(chan struct{}),
	}
	n.wg.Add(2)
	go n.readLoop()
	go n.probeLoop()
	return n, nil
}

// Addr returns the bound UDP address.
func (n *Node) Addr() *net.UDPAddr { return n.conn.LocalAddr().(*net.UDPAddr) }

// AddPeer registers a peer address to probe.
func (n *Node) AddPeer(addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("daemon: resolve peer %q: %w", addr, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers = append(n.peers, ua)
	return nil
}

// Coord returns the node's current coordinate estimate.
func (n *Node) Coord() coordspace.Coord {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.vn.Coord()
}

// ErrorEstimate returns the node's current local error estimate.
func (n *Node) ErrorEstimate() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.vn.Error()
}

// Updates returns how many samples the node has applied.
func (n *Node) Updates() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.updates
}

// DistanceTo predicts the RTT in milliseconds to a peer coordinate.
func (n *Node) DistanceTo(c coordspace.Coord) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cfg.Vivaldi.Space.Dist(n.vn.Coord(), c)
}

// Close shuts the daemon down and waits for its goroutines.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.closedCh)
	n.mu.Unlock()
	err := n.conn.Close()
	n.wg.Wait()
	return err
}

func (n *Node) probeLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.closedCh:
			return
		case <-ticker.C:
			n.sendProbe()
		}
	}
}

func (n *Node) sendProbe() {
	n.mu.Lock()
	if len(n.peers) == 0 {
		n.mu.Unlock()
		return
	}
	peer := n.peers[n.rng.Intn(len(n.peers))]
	n.seq++
	seq := n.seq
	now := time.Now()
	n.pending[seq] = pendingProbe[string]{
		sentNano:     now.UnixNano(),
		peer:         peer.String(),
		deadlineNano: now.Add(n.cfg.ProbeTimeout).UnixNano(),
	}
	gcPending(n.pending, now.UnixNano()) // opportunistic GC of timed-out probes
	n.mu.Unlock()

	pkt := wire.AppendRequest(make([]byte, 0, 64), wire.ProbeRequest{
		Seq:      seq,
		SentNano: now.UnixNano(),
	})
	_, _ = n.conn.WriteToUDP(pkt, peer) // lost probes time out naturally
}

func (n *Node) readLoop() {
	defer n.wg.Done()
	buf := make([]byte, 2048)
	for {
		nb, from, err := n.conn.ReadFromUDP(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			select {
			case <-n.closedCh:
				return
			default:
				continue // transient error; keep serving
			}
		}
		msg, err := wire.Decode(buf[:nb])
		if err != nil {
			continue // hostile or corrupt packet: drop silently
		}
		switch m := msg.(type) {
		case wire.ProbeRequest:
			n.handleRequest(m, from)
		case wire.ProbeResponse:
			n.handleResponse(m, from)
		}
	}
}

func (n *Node) handleRequest(req wire.ProbeRequest, from *net.UDPAddr) {
	n.mu.Lock()
	coord := n.vn.Coord()
	errEst := n.vn.Error()
	n.mu.Unlock()

	resp := honestResponse(req, coord, errEst)
	peer := from.String()
	if n.cfg.Forge != nil {
		// Forgers cannot fake protocol identity (sequence number, echoed
		// timestamp); clampForged re-pins both.
		resp = clampForged(req, n.cfg.Forge(resp, peer))
	}
	pkt := wire.AppendResponse(make([]byte, 0, 512), resp)

	var delay time.Duration
	if n.cfg.Latency != nil {
		delay = n.cfg.Latency(peer)
	}
	if delay <= 0 {
		_, _ = n.conn.WriteToUDP(pkt, from)
		return
	}
	t := time.AfterFunc(delay, func() {
		select {
		case <-n.closedCh:
		default:
			_, _ = n.conn.WriteToUDP(pkt, from)
		}
	})
	_ = t
}

func (n *Node) handleResponse(resp wire.ProbeResponse, from *net.UDPAddr) {
	now := time.Now().UnixNano()
	n.mu.Lock()
	defer n.mu.Unlock()
	rttMs, ok := matchResponse(n.pending, resp, from.String(), now, n.cfg.Vivaldi.Space.Dims)
	if !ok {
		return // unsolicited, replayed or malformed: cannot shorten RTTs
	}
	// Attribute the sample to the sender's slot in the peer list, so the
	// per-peer hardening state (latency filter, neighbor decay) engages
	// exactly as it does for SimNode.
	n.vn.UpdateFrom(n.peerIndex(from), vivaldi.ProbeResponse{
		Coord: coordspace.Coord{V: resp.Vec, H: resp.Height},
		Error: resp.Error,
		RTT:   rttMs,
	})
	n.updates++
}

// peerIndex returns addr's position in the peer list, or -1 (no
// attribution). Called with n.mu held.
func (n *Node) peerIndex(addr *net.UDPAddr) int {
	for i, p := range n.peers {
		if p.Port == addr.Port && p.IP.Equal(addr.IP) {
			return i
		}
	}
	return -1
}
