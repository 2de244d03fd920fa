package engine

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"math/rand"

	"repro/internal/randx"
)

// This file implements declarative chaos campaigns: a RunSpec may carry a
// Schedule of timed Phases whose actions install and remove attack mixes
// mid-run, mutate the live network's fault knobs while daemons are
// running, apply and heal link partitions, and fire churn bursts. The
// paper injects one attack at one instant against a healthy network; a
// campaign gives the same deterministic machinery a time dimension.
//
// Determinism rules: phases fire at measurement barriers (never inside a
// tick), dispatch runs serially on the unit's goroutine, and every random
// decision draws from its own derived stream keyed by phase index (and,
// for churn, period). Scheduled mutation therefore consumes nothing from
// the streams existing runs use — adding a Schedule never perturbs the
// unscheduled part of a scenario, and results stay bit-identical for any
// worker count.

// SelectorKind names a node-selection rule (see Selector).
type SelectorKind string

// The selector kinds.
const (
	// SelAll (the zero value): every eligible node.
	SelAll SelectorKind = ""
	// SelFrac: a uniformly random Frac of the eligible nodes.
	SelFrac SelectorKind = "frac"
	// SelIDs: the explicit IDs (filtered to eligible nodes).
	SelIDs SelectorKind = "ids"
	// SelDegree: the Frac of eligible nodes with the highest spring-graph
	// degree (in- plus out-springs via vivaldi.NeighborSets; Vivaldi only).
	SelDegree SelectorKind = "degree"
	// SelRest: everything the other side of a partition did not take.
	// Valid only as PhasePartition.B, where it is also the zero value's
	// meaning.
	SelRest SelectorKind = "rest"
)

// Selector deterministically scopes a phase action to a node set.
type Selector struct {
	Kind SelectorKind
	Frac float64 // SelFrac, SelDegree
	IDs  []int   // SelIDs
}

func (sel Selector) validate(role string) error {
	switch sel.Kind {
	case SelAll:
	case SelFrac, SelDegree:
		if sel.Frac <= 0 || sel.Frac > 1 {
			return fmt.Errorf("%s selector %q needs Frac in (0,1], got %g", role, sel.Kind, sel.Frac)
		}
	case SelIDs:
		if len(sel.IDs) == 0 {
			return fmt.Errorf("%s selector %q needs at least one id", role, sel.Kind)
		}
		for _, id := range sel.IDs {
			if id < 0 {
				return fmt.Errorf("%s selector %q has negative id %d", role, sel.Kind, id)
			}
		}
	case SelRest:
		if role != "partition-b" {
			return fmt.Errorf("%s selector: %q is valid only as a partition's B side", role, sel.Kind)
		}
	default:
		return fmt.Errorf("%s selector: unknown kind %q", role, sel.Kind)
	}
	return nil
}

// resolve returns the sorted node ids the selector picks out of the
// eligible set, drawing any randomness from rng. Validation has run: the
// kind is resolvable (SelRest never reaches here) and, by the capability
// rule, SelDegree selects on a system with springs.
func (sel Selector) resolve(cs CoordSystem, eligible func(int) bool, rng fracRng) []int {
	n := cs.Size()
	pool := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if eligible == nil || eligible(i) {
			pool = append(pool, i)
		}
	}
	switch sel.Kind {
	case SelAll:
		return pool

	case SelFrac:
		k := fracCount(sel.Frac, len(pool))
		out := make([]int, 0, k)
		for _, idx := range randx.Sample(rng(), len(pool), k) {
			out = append(out, pool[idx])
		}
		sort.Ints(out)
		return out

	case SelIDs:
		out := make([]int, 0, len(sel.IDs))
		for _, id := range sel.IDs {
			if id < n && (eligible == nil || eligible(id)) {
				out = append(out, id)
			}
		}
		sort.Ints(out)
		return out

	case SelDegree:
		ng := cs.(springSystem)
		// Degree = out-springs plus in-springs: the spring graph is
		// directed (i picks its 64 springs), so popular hosts are the ones
		// many others chose.
		deg := make([]int, n)
		for i := 0; i < n; i++ {
			nbrs := ng.Neighbors(i)
			deg[i] += len(nbrs)
			for _, j := range nbrs {
				deg[j]++
			}
		}
		byDeg := append([]int(nil), pool...)
		sort.SliceStable(byDeg, func(x, y int) bool {
			if deg[byDeg[x]] != deg[byDeg[y]] {
				return deg[byDeg[x]] > deg[byDeg[y]]
			}
			return byDeg[x] < byDeg[y]
		})
		out := byDeg[:fracCount(sel.Frac, len(byDeg))]
		sort.Ints(out)
		return out
	}
	panic("engine: unresolvable selector kind " + string(sel.Kind))
}

// fracRng defers RNG construction to first use, so selectors that draw no
// randomness consume no derived stream.
type fracRng func() *rand.Rand

func fracCount(frac float64, n int) int {
	k := int(frac * float64(n))
	if k < 1 && n > 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// FaultSpec is the engine-level view of the live network's fault knobs —
// an all-scalar comparable struct so RunSpec stays usable as a map key.
// The zero value means a perfect network.
type FaultSpec struct {
	Loss           float64
	Duplicate      float64
	Reorder        float64
	ReorderDelayMS float64 // 0 keeps the network's current reorder delay
}

func (f FaultSpec) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"Loss", f.Loss}, {"Duplicate", f.Duplicate}, {"Reorder", f.Reorder}} {
		if p.v < 0 || p.v >= 1 {
			return fmt.Errorf("fault %s must be in [0,1), got %g", p.name, p.v)
		}
	}
	if f.ReorderDelayMS < 0 {
		return fmt.Errorf("fault ReorderDelayMS must be >= 0, got %g", f.ReorderDelayMS)
	}
	return nil
}

// ReorderDelay returns the reorder hold as a duration.
func (f FaultSpec) ReorderDelay() time.Duration {
	return time.Duration(f.ReorderDelayMS * float64(time.Millisecond))
}

// PhaseAttack installs an attack mix on a fresh attacker draw scoped by
// Sel (resolved once, up front, from the phase's own derived stream).
type PhaseAttack struct {
	Spec AttackSpec
	Frac float64  // fraction of the population to turn malicious
	Sel  Selector // restricts the draw pool (SelAll = any honest node)
}

// PhasePartition severs the links between the node sets A and B for the
// phase's lifetime. A zero B means "everything A did not take" (SelRest).
type PhasePartition struct {
	A Selector
	B Selector
}

// PhaseChurn resets a Bernoulli(Frac) draw of the selected honest nodes to
// their just-joined state. With Until unset the burst fires once at At;
// with Until set it fires every period in [At, Until).
//
// With Sessions set the phase models session-length churn instead of
// memoryless bursts: a Bernoulli(Frac) participant set is drawn once, each
// participant lives through Pareto-distributed sessions, and a node resets
// (leaves and rejoins) whenever its session expires at a barrier in
// [At, Until). Sessions requires Until.
type PhaseChurn struct {
	Frac     float64
	Sel      Selector
	Sessions *ChurnSessions
}

// ChurnSessions gives a churn phase heavy-tailed session lengths: each
// participant's session duration is Pareto(MinPeriods, Alpha) measurement
// periods — most sessions are short, a heavy tail of nodes stays for a
// long time, matching measured peer-to-peer uptime distributions far
// better than the memoryless Bernoulli bursts. Alpha in (1, 2] is the
// realistic heavy-tail range (smaller = heavier tail); MinPeriods sets the
// shortest possible session.
type ChurnSessions struct {
	Alpha      float64
	MinPeriods float64
}

// Phase is one timed campaign action. At and Until are measurement
// periods relative to attack injection: period 0 is the injection barrier,
// period p is p·MeasureEvery ticks later. Exactly one of the action
// fields must be set. Until 0 means "for the rest of the run" (for churn:
// a single burst at At); otherwise the action is removed — taps
// uninstalled, faults restored, partitions healed — at the Until barrier.
type Phase struct {
	At    int
	Until int

	Attack    *PhaseAttack
	Faults    *FaultSpec
	Partition *PhasePartition
	Churn     *PhaseChurn
}

func (ph Phase) action() string {
	switch {
	case ph.Attack != nil:
		return "attack"
	case ph.Faults != nil:
		return "faults"
	case ph.Partition != nil:
		return "partition"
	case ph.Churn != nil:
		return "churn"
	}
	return ""
}

// Schedule is an ordered list of timed phases — the declarative chaos
// campaign a RunSpec may carry. RunSpec holds it by pointer (schedules
// contain slices), so spec dedup is by schedule identity: series that
// should share a simulated run must share the *Schedule value.
type Schedule struct {
	Phases []Phase
}

// validate checks the schedule's internal consistency. What a phase needs
// of the system and backend is the capability rule's (checkRun).
func (s *Schedule) validate() error {
	if len(s.Phases) == 0 {
		return fmt.Errorf("schedule has no phases")
	}
	for pi, ph := range s.Phases {
		actions := 0
		for _, set := range []bool{ph.Attack != nil, ph.Faults != nil, ph.Partition != nil, ph.Churn != nil} {
			if set {
				actions++
			}
		}
		if actions != 1 {
			return fmt.Errorf("phase %d: exactly one action required, got %d", pi, actions)
		}
		if ph.At < 0 {
			return fmt.Errorf("phase %d: At must be >= 0, got %d", pi, ph.At)
		}
		if ph.Until != 0 && ph.Until <= ph.At {
			return fmt.Errorf("phase %d: Until (%d) must exceed At (%d)", pi, ph.Until, ph.At)
		}
		switch {
		case ph.Attack != nil:
			if ph.Attack.Spec.Kind == AttackNone {
				return fmt.Errorf("phase %d: attack phase with AttackNone", pi)
			}
			if ph.Attack.Sel.Kind != SelIDs && (ph.Attack.Frac <= 0 || ph.Attack.Frac > 1) {
				return fmt.Errorf("phase %d: attack Frac must be in (0,1], got %g", pi, ph.Attack.Frac)
			}
			if err := ph.Attack.Sel.validate("attack"); err != nil {
				return fmt.Errorf("phase %d: %w", pi, err)
			}
		case ph.Faults != nil:
			if err := ph.Faults.validate(); err != nil {
				return fmt.Errorf("phase %d: %w", pi, err)
			}
		case ph.Partition != nil:
			if err := ph.Partition.A.validate("partition-a"); err != nil {
				return fmt.Errorf("phase %d: %w", pi, err)
			}
			if err := ph.Partition.B.validate("partition-b"); err != nil {
				return fmt.Errorf("phase %d: %w", pi, err)
			}
		case ph.Churn != nil:
			if ph.Churn.Frac <= 0 || ph.Churn.Frac > 1 {
				return fmt.Errorf("phase %d: churn Frac must be in (0,1], got %g", pi, ph.Churn.Frac)
			}
			if err := ph.Churn.Sel.validate("churn"); err != nil {
				return fmt.Errorf("phase %d: %w", pi, err)
			}
			if ses := ph.Churn.Sessions; ses != nil {
				if ses.Alpha <= 0 {
					return fmt.Errorf("phase %d: churn session Alpha must be > 0, got %g", pi, ses.Alpha)
				}
				if ses.MinPeriods <= 0 {
					return fmt.Errorf("phase %d: churn session MinPeriods must be > 0, got %g", pi, ses.MinPeriods)
				}
				if ph.Until == 0 {
					return fmt.Errorf("phase %d: session churn needs Until (sessions are meaningless in a single burst)", pi)
				}
			}
		}
	}
	return nil
}

// Timeline renders the schedule compactly for run banners and -list:
// "@1→3 attack disorder 20%; @2 cut 25%|rest; @3 churn 30%".
func (s *Schedule) Timeline() string {
	var b strings.Builder
	for pi, ph := range s.Phases {
		if pi > 0 {
			b.WriteString("; ")
		}
		if ph.Until > 0 {
			fmt.Fprintf(&b, "@%d→%d ", ph.At, ph.Until)
		} else {
			fmt.Fprintf(&b, "@%d ", ph.At)
		}
		switch {
		case ph.Attack != nil:
			fmt.Fprintf(&b, "attack %s %g%%%s", ph.Attack.Spec.Kind, ph.Attack.Frac*100, selSuffix(ph.Attack.Sel))
		case ph.Faults != nil:
			b.WriteString("faults")
			fmt.Fprintf(&b, " loss=%g%%", ph.Faults.Loss*100)
			if ph.Faults.Duplicate > 0 {
				fmt.Fprintf(&b, " dup=%g%%", ph.Faults.Duplicate*100)
			}
			if ph.Faults.Reorder > 0 {
				fmt.Fprintf(&b, " reorder=%g%%", ph.Faults.Reorder*100)
			}
		case ph.Partition != nil:
			fmt.Fprintf(&b, "cut %s|%s", selName(ph.Partition.A), selName(ph.Partition.B))
		case ph.Churn != nil:
			fmt.Fprintf(&b, "churn %g%%%s", ph.Churn.Frac*100, selSuffix(ph.Churn.Sel))
			if ses := ph.Churn.Sessions; ses != nil {
				fmt.Fprintf(&b, " pareto(a=%g,min=%g)", ses.Alpha, ses.MinPeriods)
			}
		}
	}
	return b.String()
}

func selName(sel Selector) string {
	switch sel.Kind {
	case SelAll:
		return "rest" // only printed for partition B, where zero means rest
	case SelFrac:
		return fmt.Sprintf("%g%%", sel.Frac*100)
	case SelIDs:
		return fmt.Sprintf("%d ids", len(sel.IDs))
	case SelDegree:
		return fmt.Sprintf("top-degree %g%%", sel.Frac*100)
	default:
		return string(sel.Kind)
	}
}

func selSuffix(sel Selector) string {
	if sel.Kind == SelAll {
		return ""
	}
	return " of " + selName(sel)
}

// campaign is the per-unit runtime state of a schedule: phase attackers
// are drawn up front (so the honest measurement set is constant for the
// whole run, same rationale as the main attacker draw), everything else
// resolves when its phase fires.
type campaign struct {
	cs     CoordSystem
	phases []Phase
	seed   int64

	attackers [][]int      // per attack phase, drawn up front
	schedMal  map[int]bool // union of all phase attackers
	churnPool [][]int      // per churn phase, resolved at first firing
	cutID     []int        // per partition phase, 0 = none active
	prevFault []FaultSpec  // per fault phase, knobs to restore at Until
	havePrev  []bool

	// Session churn state (phases with Sessions set): the participant
	// draw and each participant's next session-expiry period, both lazily
	// resolved at the phase's first firing.
	churnPart     [][]int
	churnDeadline [][]float64

	next int // next period to dispatch
}

// newCampaign resolves a schedule against a freshly built system. exclude
// reports nodes that must not be drawn as phase attackers (the main
// malicious set, ineligible nodes, the protected target). Returns nil
// when the run has no schedule.
func newCampaign(cs CoordSystem, r RunSpec, repSeed int64, exclude func(int) bool) *campaign {
	if r.Schedule == nil {
		return nil
	}
	c := &campaign{
		cs:            cs,
		phases:        r.Schedule.Phases,
		seed:          repSeed,
		attackers:     make([][]int, len(r.Schedule.Phases)),
		schedMal:      map[int]bool{},
		churnPool:     make([][]int, len(r.Schedule.Phases)),
		cutID:         make([]int, len(r.Schedule.Phases)),
		prevFault:     make([]FaultSpec, len(r.Schedule.Phases)),
		havePrev:      make([]bool, len(r.Schedule.Phases)),
		churnPart:     make([][]int, len(r.Schedule.Phases)),
		churnDeadline: make([][]float64, len(r.Schedule.Phases)),
	}
	for pi, ph := range c.phases {
		if ph.Attack == nil {
			continue
		}
		eligible := func(i int) bool {
			return !c.schedMal[i] && (exclude == nil || !exclude(i))
		}
		rng := lazyRng(repSeed, "campaign-attack", pi)
		ids := ph.Attack.Sel.resolve(cs, eligible, rng)
		if ph.Attack.Sel.Kind != SelIDs {
			// The selector scoped the pool; the Frac draw picks the
			// attackers out of it, sized against the whole population like
			// the main malicious draw.
			want := fracCount(ph.Attack.Frac, cs.Size())
			if want > len(ids) {
				want = len(ids)
			}
			picked := make([]int, 0, want)
			for _, idx := range randx.Sample(rng(), len(ids), want) {
				picked = append(picked, ids[idx])
			}
			sort.Ints(picked)
			ids = picked
		}
		c.attackers[pi] = ids
		for _, id := range ids {
			c.schedMal[id] = true
		}
	}
	return c
}

// ScheduledAttacker reports whether node i is drawn as an attacker by any
// phase — such nodes are excluded from the honest measurement set for the
// whole run, before, during and after their phase.
func (c *campaign) ScheduledAttacker(i int) bool {
	if c == nil {
		return false
	}
	return c.schedMal[i]
}

// dispatch fires every phase boundary in (last dispatched, period]:
// removals first (a phase ending at P is gone before one starting at P
// installs), then installs, then active churn bursts — each group in
// declared phase order.
func (c *campaign) dispatch(period int) error {
	for q := c.next; q <= period; q++ {
		for pi, ph := range c.phases {
			if ph.Until != 0 && ph.Until == q && ph.Churn == nil {
				c.remove(pi, ph)
			}
		}
		for pi, ph := range c.phases {
			if ph.At == q && ph.Churn == nil {
				if err := c.install(pi, ph); err != nil {
					return err
				}
			}
		}
		for pi, ph := range c.phases {
			if ph.Churn != nil && churnActive(ph, q) {
				c.burst(pi, ph, q)
			}
		}
	}
	c.next = period + 1
	return nil
}

// churnActive reports whether a churn phase fires at period q: Until unset
// means a single burst at At.
func churnActive(ph Phase, q int) bool {
	if ph.Until == 0 {
		return q == ph.At
	}
	return q >= ph.At && q < ph.Until
}

func (c *campaign) install(pi int, ph Phase) error {
	switch {
	case ph.Attack != nil:
		_, err := c.cs.Inject(ph.Attack.Spec, c.attackers[pi], randx.DeriveSeed(c.seed, "campaign-inject", pi))
		return err

	case ph.Faults != nil:
		// The capability rule's one documented no-op: the memory backend
		// has no packet network, so only a live system has knobs to set.
		if ls, ok := c.cs.(*liveSystem); ok {
			c.prevFault[pi], c.havePrev[pi] = ls.faults(), true
			ls.setFaults(*ph.Faults)
		}
		return nil

	case ph.Partition != nil:
		rng := lazyRng(c.seed, "campaign-cut", pi)
		n := c.cs.Size()
		a := make([]bool, n)
		for _, id := range ph.Partition.A.resolve(c.cs, nil, rng) {
			a[id] = true
		}
		b := make([]bool, n)
		if ph.Partition.B.Kind == SelRest || isZeroSelector(ph.Partition.B) {
			for i := range b {
				b[i] = !a[i]
			}
		} else {
			for _, id := range ph.Partition.B.resolve(c.cs, func(i int) bool { return !a[i] }, rng) {
				b[id] = true
			}
		}
		c.cutID[pi] = c.cs.(springSystem).ApplyPartition(a, b)
		return nil
	}
	return nil
}

func (c *campaign) remove(pi int, ph Phase) {
	switch {
	case ph.Attack != nil:
		c.cs.RemoveTaps(c.attackers[pi])
	case ph.Faults != nil && c.havePrev[pi]:
		c.cs.(*liveSystem).setFaults(c.prevFault[pi])
	case ph.Partition != nil && c.cutID[pi] != 0:
		c.cs.(springSystem).HealPartition(c.cutID[pi])
		c.cutID[pi] = 0
	}
}

// burst fires one churn period: the selector's pool (resolved once, at the
// phase's first firing, over the honest evaluable population) is swept in
// id order with a Bernoulli(Frac) draw from a per-(phase, period) stream.
// Session phases (Sessions set) instead reset exactly the participants
// whose Pareto session expired by this barrier.
func (c *campaign) burst(pi int, ph Phase, q int) {
	ch := c.cs.(springSystem)
	if c.churnPool[pi] == nil {
		eligible := func(i int) bool { return c.cs.Evaluable(i) && !c.schedMal[i] }
		pool := ph.Churn.Sel.resolve(c.cs, eligible, lazyRng(c.seed, "campaign-churn-sel", pi))
		if pool == nil {
			pool = []int{}
		}
		c.churnPool[pi] = pool
	}
	if ph.Churn.Sessions != nil {
		c.sessionBurst(pi, ph, q, ch)
		return
	}
	rng := randx.NewDerived(c.seed, "campaign-churn", pi*1_000_000+q)
	for _, id := range c.churnPool[pi] {
		if randx.Bernoulli(rng, ph.Churn.Frac) {
			ch.ResetNode(id)
		}
	}
}

// sessionBurst is the Pareto session-length path: the Bernoulli(Frac)
// participant set and every participant's first session end are drawn once
// from the phase's init stream (id-order sweep, so the draw is independent
// of worker count); each firing then resets exactly the participants whose
// deadline passed and advances their deadlines with fresh session lengths
// from the per-(phase, period) stream. A node whose heavy tail would have
// cycled more than once between barriers still resets once — barriers are
// the only instants churn can act, so intra-period flaps are unobservable
// by construction.
func (c *campaign) sessionBurst(pi int, ph Phase, q int, ch springSystem) {
	ses := ph.Churn.Sessions
	if c.churnPart[pi] == nil {
		rng := randx.NewDerived(c.seed, "campaign-churn-init", pi)
		part := make([]int, 0, len(c.churnPool[pi]))
		var deadlines []float64
		for _, id := range c.churnPool[pi] {
			if randx.Bernoulli(rng, ph.Churn.Frac) {
				part = append(part, id)
				deadlines = append(deadlines, float64(ph.At)+randx.Pareto(rng, ses.MinPeriods, ses.Alpha))
			}
		}
		c.churnPart[pi] = part
		c.churnDeadline[pi] = deadlines
	}
	rng := randx.NewDerived(c.seed, "campaign-churn", pi*1_000_000+q)
	fq := float64(q)
	for k, id := range c.churnPart[pi] {
		if c.churnDeadline[pi][k] > fq {
			continue
		}
		ch.ResetNode(id)
		for c.churnDeadline[pi][k] <= fq {
			c.churnDeadline[pi][k] += randx.Pareto(rng, ses.MinPeriods, ses.Alpha)
		}
	}
}

func isZeroSelector(sel Selector) bool {
	return sel.Kind == SelAll && sel.Frac == 0 && len(sel.IDs) == 0
}

// lazyRng builds the derived stream on first use, so resolutions that
// draw nothing leave the label untouched.
func lazyRng(seed int64, label string, idx int) fracRng {
	var r *rand.Rand
	return func() *rand.Rand {
		if r == nil {
			r = randx.NewDerived(seed, label, idx)
		}
		return r
	}
}
