package engine

import (
	"math"
	"slices"
	"time"

	"repro/internal/coordspace"
	"repro/internal/daemon"
	"repro/internal/latency"
	"repro/internal/randx"
	"repro/internal/simnet"
	"repro/internal/vivaldi"
	"repro/internal/wire"
)

// liveSystem is the live-UDP execution backend: a CoordSystem whose
// population is N daemon nodes exchanging real wire-protocol packets over
// a virtual UDP network (internal/simnet), with one-way delays drawn from
// the run's latency substrate. Where the in-memory adapter applies the
// update rule in a closed-form loop, here every measurement is a real
// request/response exchange — encoded, transmitted, delayed, possibly
// lost or reordered, decoded and validated — which is the deployment
// model the paper attacks.
//
//   - Step is a virtual-time barrier: it drains the simnet event queue
//     for one tick interval (every node probes once per interval) and
//     then reads the daemons' coordinates into the flat coordspace.Store,
//     so the engine's metrics and reducers work unchanged.
//   - Inject installs attacker taps at the wire layer: a tapped daemon's
//     replies are rewritten (forged coordinates and error) and delayed
//     (RTT inflation — the only timing manipulation the protocol's
//     response validation leaves open) before they are encoded.
//   - Everything — probe timers, packet deliveries, fault draws, tap
//     decisions — executes in deterministic event order on the virtual
//     clock, so a fixed seed yields bit-identical series for any worker
//     count, same as the in-memory backend.
type liveSystem struct {
	cfg       vivaldi.Config // resolved (defaults applied)
	m         latency.Substrate
	sim       *simnet.Sim
	net       *simnet.Network
	nodes     []*daemon.SimNode
	taps      []vivaldi.Tap
	neighbors [][]int
	store     *coordspace.Store
	errs      []float64
	adj       []float64 // per-node adjustment terms; nil unless hardening enables them
	tick      int
	interval  time.Duration

	// Per-source one-way delay cache over the spring graph's edges,
	// normalized to the lower endpoint (RTTs are symmetric). Built once at
	// boot with batched RTTFrom row gathers; per-packet lookups replace
	// re-hashing the O(1)-memory model substrate on every send. nil for
	// table-backed substrates, whose RTT call is already a single load.
	delayPeers [][]int32
	delayVals  [][]time.Duration
}

// liveTickInterval is the virtual time one engine Step advances the live
// network: each daemon probes one neighbour per interval, mirroring the
// in-memory simulation's one-probe-per-node tick. It comfortably exceeds
// the substrate's RTTs, so a tick's honest responses are applied within
// the same barrier rather than lagging into the next.
const liveTickInterval = 3 * time.Second

// liveProbeTimeout is how long a live node waits for a response. Over a
// real transport an attacker inflates RTTs by *delaying* replies, so the
// prober's timeout caps the largest RTT lie that can ever be applied —
// a constraint the closed-form simulation does not have. The colluding
// attacks claim RTTs up to ~5× the 50 000 ms exile radius (see
// core.repelToward), so the engine's live nodes wait out any lie the
// registered attacks tell; shrinking this toward the UDP daemon's 3 s
// default is itself a defense, at the price of tolerating fewer genuinely
// slow paths.
const liveProbeTimeout = 500 * time.Second

// LiveNetConfig exposes the virtual network's fault knobs for live runs
// built directly through NewLiveNet (the spec registry path runs the
// default perfect network, matching the in-memory engine's loss model).
type LiveNetConfig struct {
	Loss         float64
	Duplicate    float64
	Reorder      float64
	ReorderDelay time.Duration
}

// NewLiveNet boots a live-backend population over m: N daemon nodes on a
// virtual UDP network realising the substrate's RTTs, wired with the same
// spring structure the in-memory system would use at this seed, with the
// network faults nc asks for (the zero value is a perfect network).
func NewLiveNet(m latency.Substrate, cfg vivaldi.Config, seed int64, sh Sharder, nc LiveNetConfig) CoordSystem {
	cfg = cfg.Resolved()
	n := m.Size()
	sim := simnet.New()
	ls := &liveSystem{
		cfg:      cfg,
		m:        m,
		sim:      sim,
		nodes:    make([]*daemon.SimNode, n),
		taps:     make([]vivaldi.Tap, n),
		store:    coordspace.NewStore(cfg.Space, n),
		errs:     make([]float64, n),
		interval: liveTickInterval,
	}
	if cfg.Harden.AdjustmentWindow > 0 {
		ls.adj = make([]float64, n)
	}
	net := simnet.NewNetwork(sim, simnet.NetConfig{
		Latency:      ls.oneWayDelay,
		Loss:         nc.Loss,
		Duplicate:    nc.Duplicate,
		Reorder:      nc.Reorder,
		ReorderDelay: nc.ReorderDelay,
		Seed:         seed,
	})
	ls.net = net
	neighbors := vivaldi.NeighborSets(m, cfg, seed, sh)
	ls.neighbors = neighbors
	ls.buildDelayCache(neighbors)
	for i := 0; i < n; i++ {
		ls.nodes[i] = daemon.NewSimNode(sim, net, i, daemon.SimConfig{
			Vivaldi:       cfg,
			ProbeInterval: ls.interval,
			ProbeTimeout:  liveProbeTimeout,
			Seed:          randx.DeriveSeed(seed, "live-node", i),
		})
		ls.nodes[i].SetPeers(neighbors[i])
		ls.errs[i] = cfg.InitialError
	}
	return ls
}

// oneWayDelay is the network's Latency hook: half the substrate RTT each
// way, so a request/response exchange measures the full round-trip time.
// Spring-graph edges hit the boot-time cache; anything else (none in a
// registered run) falls through to the substrate.
func (ls *liveSystem) oneWayDelay(from, to int) time.Duration {
	if ls.delayPeers != nil {
		lo, hi := from, to
		if hi < lo {
			lo, hi = hi, lo
		}
		row := ls.delayPeers[lo]
		if k, ok := slices.BinarySearch(row, int32(hi)); ok {
			return ls.delayVals[lo][k]
		}
	}
	return time.Duration(ls.m.RTT(from, to) * float64(time.Millisecond) / 2)
}

// buildDelayCache gathers the one-way delay for every spring-graph edge
// with batched RTTFrom rows. Only the hash-recomputing model substrate is
// worth fronting — a table-backed RTT is already a single indexed load.
// Cached values are computed with the exact expression oneWayDelay's
// fallback uses, so caching cannot perturb a run.
func (ls *liveSystem) buildDelayCache(neighbors [][]int) {
	if _, ok := ls.m.(*latency.Model); !ok {
		return
	}
	n := ls.m.Size()
	peers := make([][]int32, n)
	for i, ns := range neighbors {
		for _, p := range ns {
			lo, hi := i, p
			if hi < lo {
				lo, hi = hi, lo
			}
			if lo != hi {
				peers[lo] = append(peers[lo], int32(hi))
			}
		}
	}
	vals := make([][]time.Duration, n)
	var dsts []int
	var rtts []float64
	for lo, row := range peers {
		if len(row) == 0 {
			continue
		}
		slices.Sort(row)
		row = slices.Compact(row) // i↔p edges are usually listed twice
		dsts = dsts[:0]
		for _, hi := range row {
			dsts = append(dsts, int(hi))
		}
		rtts = slices.Grow(rtts[:0], len(dsts))[:len(dsts)]
		ls.m.RTTFrom(lo, dsts, rtts)
		v := make([]time.Duration, len(row))
		for k, r := range rtts {
			v[k] = time.Duration(r * float64(time.Millisecond) / 2)
		}
		peers[lo], vals[lo] = row, v
	}
	ls.delayPeers, ls.delayVals = peers, vals
}

func (ls *liveSystem) Size() int                    { return len(ls.nodes) }
func (ls *liveSystem) Space() coordspace.Space      { return ls.cfg.Space }
func (ls *liveSystem) Substrate() latency.Substrate { return ls.m }
func (ls *liveSystem) EligibleAttacker(i int) bool  { return true }
func (ls *liveSystem) Evaluable(i int) bool         { return true }
func (ls *liveSystem) Clone() CoordSystem           { return nil }

// Step advances the live network by one tick interval of virtual time —
// the barrier that replaces the in-memory backend's closed-form sweep —
// then synchronises the flat store with the daemons' state. The sharder
// is used only for the (disjoint-slot) readout; the event drain itself is
// single-goroutine by simnet's determinism design.
func (ls *liveSystem) Step(sh Sharder) {
	ls.tick++
	ls.sim.RunUntil(time.Duration(ls.tick) * ls.interval)
	ls.sync(sh)
}

// sync copies every daemon's coordinate, error estimate and (when the
// adjustment refinement is on) distance adjustment term into the flat
// population buffers the measurement pass sweeps.
func (ls *liveSystem) sync(sh Sharder) {
	sh.ForEach(len(ls.nodes), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ls.nodes[i].SyncInto(ls.store, i)
			ls.errs[i] = ls.nodes[i].ErrorEstimate()
			if ls.adj != nil {
				ls.adj[i] = ls.nodes[i].Adjustment()
			}
		}
	})
}

// SetTap implements the shared attack installer's contract: installing a
// tap arms the daemon's wire-layer forge, removing it disarms the node.
func (ls *liveSystem) SetTap(id int, t vivaldi.Tap) {
	ls.taps[id] = t
	if t == nil {
		ls.nodes[id].SetForge(nil)
		return
	}
	ls.nodes[id].SetForge(ls.forgeFor(id))
}

// forgeFor adapts node id's tap to the daemon's wire hook: the honest
// wire response is lifted to the tap's view, the tap decides the lie, and
// the result is lowered back to wire form plus the response delay that
// realises the tap's RTT inflation on a network where delays are physics.
func (ls *liveSystem) forgeFor(id int) daemon.SimForge {
	return func(honest wire.ProbeResponse, prober int) (wire.ProbeResponse, time.Duration) {
		tap := ls.taps[id]
		if tap == nil {
			return honest, 0
		}
		hv := vivaldi.ProbeResponse{
			Coord: coordspace.Coord{V: honest.Vec, H: honest.Height},
			Error: honest.Error,
			RTT:   ls.m.RTT(prober, id),
		}
		forged := tap.Respond(prober, hv, ls)
		if forged.RTT < hv.RTT {
			forged.RTT = hv.RTT // delays only; cannot shorten physics
		}
		// forged.Coord may be tap scratch: the daemon encodes it on return.
		honest.Error = forged.Error
		honest.Height = forged.Coord.H
		honest.Vec = forged.Coord.V
		return honest, forgedDelay(forged.RTT - hv.RTT)
	}
}

// maxForgedDelay outlasts any probe timeout or run; now+delay cannot wrap.
const maxForgedDelay = 100 * 365 * 24 * time.Hour

// forgedDelay converts a tap's RTT inflation in ms to the response delay
// that realises it. It saturates because an out-of-range float→int64
// conversion is implementation-defined — MinInt64 on amd64, which SendAfter
// reads as "send now": the largest lie would be the only undelayed one, and
// not on every architecture. NaN is no inflation.
func forgedDelay(inflationMS float64) time.Duration {
	ns := inflationMS * float64(time.Millisecond)
	if math.IsNaN(ns) {
		return 0
	}
	return time.Duration(min(ns, float64(maxForgedDelay)))
}

func (ls *liveSystem) Inject(spec AttackSpec, malicious []int, seed int64) (*Injection, error) {
	return installVivaldiTaps(ls, spec, malicious, seed)
}

// The vivaldi.View taps consult: coordinates and errors as of the last
// tick barrier — the attacker's knowledge is what probing the public
// system would have told it, not instantaneous internal state. Coord is a
// view of the barrier store, which only sync writes, between event drains.

func (ls *liveSystem) Coord(i int) coordspace.Coord { return ls.store.ViewAt(i) }
func (ls *liveSystem) LocalError(i int) float64     { return ls.errs[i] }
func (ls *liveSystem) TrueRTT(i, j int) float64     { return ls.m.RTT(i, j) }
func (ls *liveSystem) Tick() int                    { return ls.tick }

var _ vivaldi.View = (*liveSystem)(nil)

func (ls *liveSystem) Store() *coordspace.Store { return ls.store }

func (ls *liveSystem) Measure(peers [][]int, include func(int) bool, sh Sharder, out []float64) []float64 {
	return measure(ls.m, ls.store, peers, include, ls.adj, sh, out)
}

// Neighbors returns node i's spring set (campaign SelDegree selector).
func (ls *liveSystem) Neighbors(i int) []int { return ls.neighbors[i] }

// RemoveTaps uninstalls the given daemons' attack taps: the wire-layer
// forge disarms and the node resumes moving its own coordinate — the
// teardown half of Inject, used by campaign phases that end mid-run.
func (ls *liveSystem) RemoveTaps(ids []int) {
	for _, id := range ids {
		ls.SetTap(id, nil)
	}
}

// ResetNode implements live churn: the daemon returns to its just-joined
// state (origin coordinate, initial error, empty pending set) and the
// barrier readout is refreshed immediately, so a measurement in the same
// period sees the fresh join rather than the departed host's coordinate.
func (ls *liveSystem) ResetNode(i int) {
	ls.nodes[i].Reset()
	ls.nodes[i].SyncInto(ls.store, i)
	ls.errs[i] = ls.nodes[i].ErrorEstimate()
	if ls.adj != nil {
		ls.adj[i] = 0
	}
}

// ApplyPartition / HealPartition sever and restore links at the packet
// layer: probes across the cut are sent and never delivered, timing out
// in the prober's pending set exactly like real partition loss.
func (ls *liveSystem) ApplyPartition(a, b []bool) int { return ls.net.Partition(a, b) }
func (ls *liveSystem) HealPartition(id int)           { ls.net.Heal(id) }

// setFaults / faults mutate and read the virtual network's fault knobs
// while daemons run — the live-only half of a fault phase. In-flight
// packets keep the draws made at send time.
func (ls *liveSystem) setFaults(f FaultSpec) {
	ls.net.SetFaults(simnet.FaultConfig{
		Loss:         f.Loss,
		Duplicate:    f.Duplicate,
		Reorder:      f.Reorder,
		ReorderDelay: f.ReorderDelay(),
	})
}

func (ls *liveSystem) faults() FaultSpec {
	f := ls.net.Faults()
	return FaultSpec{
		Loss:           f.Loss,
		Duplicate:      f.Duplicate,
		Reorder:        f.Reorder,
		ReorderDelayMS: float64(f.ReorderDelay) / float64(time.Millisecond),
	}
}
