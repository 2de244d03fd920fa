// Package vna ("Virtual Networks under Attack") is the public API of this
// repository: a from-scratch Go reproduction of Kaafar, Mathy, Turletti
// and Dabbous, "Virtual Networks under Attack: Disrupting Internet
// Coordinate Systems" (CoNEXT 2006).
//
// The library bundles:
//
//   - the two Internet coordinate systems the paper attacks — Vivaldi
//     (decentralized spring relaxation) and NPS (hierarchical
//     landmark-based positioning), plus the GNP solver NPS builds on;
//   - the paper's attack taxonomy (disorder, repulsion, colluding
//     isolation, anti-detection variants) implemented as probe taps;
//   - a synthetic King-like Internet latency substrate;
//   - an experiment harness that regenerates every figure of the paper's
//     evaluation section at configurable scale;
//   - a live UDP implementation of Vivaldi (see NewUDPNode) so the same
//     algorithms and attacks can run over real sockets;
//   - simple defenses (see NewDefenseGuard) evaluating the mitigations
//     the paper sketches as future work.
//
// Quick start:
//
//	internet := vna.GenerateInternet(200, 1)          // synthetic RTT matrix
//	sys := vna.NewVivaldi(internet, vna.VivaldiConfig{}, 1)
//	sys.Run(1500)                                     // converge cleanly
//	attackers := vna.SelectMalicious(sys.Size(), 0.3, nil, 1)
//	for _, id := range attackers {
//	    sys.SetTap(id, vna.NewDisorderAttack(id, 1))  // inject the attack
//	}
//	sys.Run(1500)
//
// Run and Step advance the population with the one tick kernel the
// experiment engine shards across its worker pool — Step is its inline,
// one-shard form, bit-identical to any pooled run — so this loop and the
// registered figures execute the same dynamics.
//
// The experiment registry is exposed through Experiments and RunExperiment;
// the cmd/vna-sim tool is a thin wrapper around them.
package vna

import (
	"fmt"
	"io"

	"repro/internal/coordspace"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/defense"
	"repro/internal/experiment"
	"repro/internal/latency"
	"repro/internal/metrics"
	"repro/internal/nps"
	"repro/internal/serve"
	"repro/internal/vivaldi"
)

// Geometry.

// Coord is a point in an embedding space (Euclidean vector plus optional
// height component).
type Coord = coordspace.Coord

// Space is an embedding geometry (n-D Euclidean, optionally with height).
type Space = coordspace.Space

// Euclidean returns a plain d-dimensional Euclidean space.
func Euclidean(d int) Space { return coordspace.Euclidean(d) }

// EuclideanHeight returns a d-dimensional space augmented with the Vivaldi
// height component (access-link delay model).
func EuclideanHeight(d int) Space { return coordspace.EuclideanHeight(d) }

// Latency substrate.

// Substrate is the pluggable latency backend every simulation samples
// through: dense matrix, packed-symmetric float32 triangle, or an O(n)
// model that recomputes RTTs on demand (25k–50k-node populations in a
// few MB). See SubstrateKind.
type Substrate = latency.Substrate

// SubstrateKind selects a backend per run: "dense", "packed" or "model"
// (set it on a Preset's Substrate field, or per engine run spec).
type SubstrateKind = latency.BackendKind

// Matrix is the dense backend: a symmetric pairwise RTT matrix in
// milliseconds.
type Matrix = latency.Matrix

// InternetModel is the O(n) backend: per-node generator state from which
// pairwise RTTs are recomputed on demand.
type InternetModel = latency.Model

// InternetConfig parameterises the synthetic King-like topology generator.
type InternetConfig = latency.KingLikeConfig

// GenerateInternet builds a synthetic n-host Internet latency matrix with
// King-dataset-like structure (clusters, heavy-tailed access links,
// triangle-inequality violations), deterministically from seed.
func GenerateInternet(n int, seed int64) *Matrix {
	return latency.GenerateKingLike(latency.DefaultKingLike(n), seed)
}

// GenerateInternetWith is GenerateInternet with full control of the
// topology parameters.
func GenerateInternetWith(cfg InternetConfig, seed int64) *Matrix {
	return latency.GenerateKingLike(cfg, seed)
}

// GenerateInternetModel builds the O(n) model backend of the same
// synthetic Internet GenerateInternet materialises: identical RTTs,
// 24 bytes per host instead of 8n² bytes.
func GenerateInternetModel(n int, seed int64) *InternetModel {
	return latency.NewKingLikeModel(latency.DefaultKingLike(n), seed)
}

// PackInternet converts any substrate to the packed-symmetric float32
// backend (≥4× smaller than dense, values within float32 rounding).
func PackInternet(s Substrate) *latency.Packed { return latency.Pack(s, nil) }

// LoadMatrix reads an RTT matrix in the package text format or as
// "i j rtt_ms" triples (e.g. a real King dataset export).
func LoadMatrix(r io.Reader) (*Matrix, error) { return latency.Load(r) }

// Subgroup extracts a deterministic k-node subgroup, the paper's
// system-size sweep primitive.
func Subgroup(m *Matrix, k int, seed int64) (*Matrix, []int) {
	return latency.RandomSubgroup(m, k, seed)
}

// Coordinate systems.

// VivaldiConfig configures a Vivaldi system; zero values take the paper's
// recommended parameters (Cc=0.25, 64 neighbours, 32 closer than 50 ms).
type VivaldiConfig = vivaldi.Config

// VivaldiSystem is a simulated Vivaldi population over a latency matrix.
type VivaldiSystem = vivaldi.System

// VivaldiProbeResponse is what one Vivaldi measurement reports.
type VivaldiProbeResponse = vivaldi.ProbeResponse

// VivaldiTap intercepts probe responses (the attack hook). The coordinates
// Respond is shown — honest.Coord and whatever view.Coord returns — are
// read-only views valid until it returns: Clone one to keep it, as the
// frog-boiling tap does with the honest coordinate at first contact. The
// coordinate it returns may be the tap's own reused buffer; the system
// copies it before it consults any tap again.
type VivaldiTap = vivaldi.Tap

// NewVivaldi builds a Vivaldi population over any latency substrate.
func NewVivaldi(m Substrate, cfg VivaldiConfig, seed int64) *VivaldiSystem {
	return vivaldi.NewSystem(m, cfg, seed)
}

// NPSConfig configures an NPS deployment; zero values take the paper's
// settings (8-D, 3 layers, 20 landmarks, C=4, 5 s probe threshold off by
// default — set ProbeThresholdMS and Security explicitly).
type NPSConfig = nps.Config

// NPSSystem is a simulated NPS deployment.
type NPSSystem = nps.System

// NPSTap intercepts NPS positioning probes (the attack hook).
type NPSTap = nps.Tap

// NewNPS builds an NPS deployment over any latency substrate.
func NewNPS(m Substrate, cfg NPSConfig, seed int64) *NPSSystem {
	return nps.NewSystem(m, cfg, seed)
}

// Attacks (the paper's §4 taxonomy; see internal/core for details).

// SelectMalicious picks ⌊fraction·n⌋ attacker ids, skipping excluded nodes.
func SelectMalicious(n int, fraction float64, exclude func(int) bool, seed int64) []int {
	return core.SelectMalicious(n, fraction, exclude, seed)
}

// NewDisorderAttack returns the Vivaldi disorder tap (§5.3.1): random
// coordinates, tiny reported error, 100–1000 ms probe delays.
func NewDisorderAttack(owner int, seed int64) VivaldiTap {
	return core.NewVivaldiDisorder(owner, seed)
}

// NewRepulsionAttack returns the Vivaldi repulsion tap (§5.3.2), pushing
// victims toward a random far-away coordinate. victims may be nil to
// attack every prober.
func NewRepulsionAttack(owner int, space Space, victims map[int]bool, seed int64) VivaldiTap {
	return core.NewVivaldiRepulsion(owner, space, 50000, victims, seed)
}

// Conspiracy is the shared state of colluding Vivaldi attacks.
type Conspiracy = core.Conspiracy

// NewConspiracy creates colluding-attack state against targetNode.
func NewConspiracy(targetNode int, space Space, seed int64) *Conspiracy {
	return core.NewConspiracy(targetNode, space, 50000, 40000, seed)
}

// NewColludingRepelAttack returns strategy 1 of §5.3.3: consistently exile
// every honest node away from the conspiracy's target.
func NewColludingRepelAttack(owner int, c *Conspiracy) VivaldiTap {
	return core.NewVivaldiColludeRepel(owner, c)
}

// NewColludingLureAttack returns strategy 2 of §5.3.3: lure the target
// into the attackers' pretend remote cluster.
func NewColludingLureAttack(owner int, c *Conspiracy, space Space) VivaldiTap {
	return core.NewVivaldiColludeLure(owner, c, space)
}

// NewNPSDisorderAttack returns the §5.4.1 simple NPS disorder tap.
func NewNPSDisorderAttack(owner int, seed int64) NPSTap {
	return core.NewNPSDisorder(owner, seed)
}

// NewNPSAntiDetectionAttack returns the §5.4.2 naive anti-detection tap
// (consistent lies that evade the NPS security filter). knowP is the
// probability of knowing a victim's coordinates.
func NewNPSAntiDetectionAttack(owner int, knowP float64, seed int64) NPSTap {
	return core.NewNPSAntiDetectionNaive(owner, knowP, seed)
}

// NewNPSSophisticatedAttack returns the §5.4.3 tap that additionally
// dodges the probe threshold by only attacking nearby victims.
func NewNPSSophisticatedAttack(owner int, knowP, probeThresholdMS float64, seed int64) NPSTap {
	return core.NewNPSAntiDetectionSophisticated(owner, knowP, probeThresholdMS, seed)
}

// NPSConspiracy is the shared state of the §5.4.4 colluding isolation
// attack on NPS: members stay honest until enough of them serve as
// reference points, then consistently exile an agreed victim set.
type NPSConspiracy = core.NPSConspiracy

// NewNPSConspiracyAttack creates the shared colluding state over the given
// member and victim sets.
func NewNPSConspiracyAttack(members []int, victims map[int]bool, space Space, seed int64) *NPSConspiracy {
	return core.NewNPSConspiracy(members, victims, space, 2500, seed)
}

// NewNPSColludingTap returns one member's tap for a colluding isolation
// attack.
func NewNPSColludingTap(owner int, c *NPSConspiracy, space Space, seed int64) NPSTap {
	return core.NewNPSColludingIsolation(owner, c, space, seed)
}

// Metrics (§5.1 indicators).

// RelativeError is |actual−predicted| / min(actual, predicted).
func RelativeError(actual, predicted float64) float64 {
	return metrics.RelativeError(actual, predicted)
}

// EvalPeers builds fixed per-node evaluation peer sets (k=0 means all
// pairs).
func EvalPeers(n, k int, seed int64) [][]int { return metrics.PeerSets(n, k, seed) }

// AverageError returns the mean relative error of the given coordinates
// against the true substrate, over nodes where include is true (nil = all).
func AverageError(m Substrate, space Space, coords []Coord, peers [][]int, include func(int) bool) float64 {
	return metrics.Mean(metrics.NodeErrors(m, space, coords, peers, include))
}

// RandomBaseline is the paper's worst case: everyone picks coordinates
// uniformly at random in [-50000, 50000] per component.
func RandomBaseline(m Substrate, space Space, peers [][]int, seed int64) float64 {
	return metrics.RandomBaseline(m, space, peers, 50000, seed)
}

// Experiments.

// Preset scales an experiment run.
type Preset = experiment.Preset

// Experiment describes one registered, reproducible paper figure.
type Experiment = experiment.Registration

// ExperimentResult is a regenerated figure: labelled series plus notes.
type ExperimentResult = experiment.Result

// Presets.
var (
	PresetBench    = experiment.Bench
	PresetQuick    = experiment.Quick
	PresetStandard = experiment.Standard
	PresetFull     = experiment.Full
)

// Defenses (§6 future-work mitigations, internal/defense).

// DefenseConfig bounds what an honest Vivaldi node accepts.
type DefenseConfig = defense.Config

// NewDefenseGuard returns a sample guard for VivaldiConfig.SampleGuard
// implementing the RTT-plausibility, error-floor, coordinate-bound and
// displacement-clamp rules.
func NewDefenseGuard(cfg DefenseConfig) func(node int, resp VivaldiProbeResponse, view vivaldi.View) (VivaldiProbeResponse, bool) {
	return defense.Guard(cfg)
}

// Live UDP deployment (internal/daemon + internal/wire).

// UDPNodeConfig configures a live Vivaldi daemon.
type UDPNodeConfig = daemon.Config

// UDPNode is a Vivaldi daemon bound to a real UDP socket.
type UDPNode = daemon.Node

// NewUDPNode starts a live Vivaldi daemon. Close it to release the socket
// and its goroutines.
func NewUDPNode(cfg UDPNodeConfig) (*UDPNode, error) { return daemon.New(cfg) }

// Coordinate query service (internal/serve).

// ServeEngine publishes immutable coordinate snapshots for lock-free
// high-throughput queries (EstimateRTT, NearestK) while a simulation
// keeps ticking.
type ServeEngine = serve.Engine

// ServeSnapshot is one immutable published view of the population.
type ServeSnapshot = serve.Snapshot

// ServeScratch is the caller-owned query scratch (one per reader
// goroutine) that makes the query path allocation-free.
type ServeScratch = serve.Scratch

// ServeNeighbor is one NearestK result.
type ServeNeighbor = serve.Neighbor

// NewServeEngine returns an empty query engine; publish a system's Store
// at each measurement barrier and query the returned snapshots.
func NewServeEngine() *ServeEngine { return serve.NewEngine() }

// Experiments lists every registered figure reproduction, sorted by ID.
// Every entry is a declarative scenario of the unified engine
// (internal/engine): new workloads — attack mixes, churn, larger-than-paper
// populations — are registry entries, not new driver code.
func Experiments() []Experiment { return experiment.List() }

// RunExperiment regenerates one figure ("fig01".."fig26") at the preset,
// parallelized across GOMAXPROCS workers. Results are bit-identical for
// any worker count at a fixed preset seed.
func RunExperiment(id string, p Preset) (*ExperimentResult, error) {
	return RunExperimentWith(id, p, 0)
}

// RunExperimentWith is RunExperiment on an explicit worker count
// (0 = GOMAXPROCS). The worker count trades wall-clock time only: the
// produced series are identical for any value.
func RunExperimentWith(id string, p Preset, workers int) (*ExperimentResult, error) {
	res, err := experiment.RunWith(id, p, workers)
	if err != nil {
		if _, unknown := err.(*experiment.UnknownError); unknown {
			return nil, fmt.Errorf("vna: unknown experiment %q", id)
		}
		return nil, err
	}
	return res, nil
}
