package engine

import (
	"fmt"
	"sync"
)

// runKey identifies one simulated run of a scenario. The system is part of
// the key because a series may override the scenario's system (overlay
// figures): the same RunSpec on two systems is two different simulations.
type runKey struct {
	kind SystemKind
	run  RunSpec
}

// plan is how RunScenario executes a scenario at a scale: its distinct
// runs, and which of them are the same simulation up to the injection
// barrier. Unit u = ri·reps + rep is repetition rep of runs[ri]; its group
// is (class[ri], rep).
type plan struct {
	runs    []runKey       // distinct (system, run), first-seen order
	index   map[runKey]int // position in runs
	reps    int
	class   []int // per run: its clean-phase class
	members []int // per class: how many runs are in it
}

// cleanPhase returns r with the fields that only matter from the injection
// barrier on zeroed: runs of one system and repetition with equal
// cleanPhase build and converge the same population. Everything not listed
// stays in the key, so a field added to RunSpec separates runs until
// someone lists it — the direction that is correct either way.
func cleanPhase(r RunSpec) RunSpec {
	r.Frac, r.Attack, r.ExcludeTarget, r.TrackTarget = 0, AttackSpec{}, false, false
	r.ChurnFrac, r.Schedule, r.XAxis, r.X = 0, nil, XFracPct, 0
	return r
}

// convergeLen is the length of a system's clean phase at a scale, in its
// own pacing (Vivaldi ticks, NPS positioning rounds).
func convergeLen(kind SystemKind, sc Scale) int {
	if kind == SystemNPS {
		return sc.NPSConvergeRounds
	}
	return sc.VivaldiConvergeTicks
}

// newPlan expands a scenario's series in one pass. A (system, run) pair
// seen before is the same unit (a clean reference shared by several series
// simulates once); a new pair whose clean phase was seen before joins that
// class; anything else starts a class of its own — including every run
// with no clean phase to start from: one that installs or samples from
// tick zero, converges for no ticks, or runs on the live backend, which
// cannot be copied.
//
// Every run is checked against the capability rule (checkRun) on the
// backend it resolves to at sc, so a Scale.Backend override a run cannot
// honour fails here, before anything is built. A Custom runner plans
// nothing and runs in memory: it is the rule's one exception, and a live
// override rejects it.
func newPlan(spec ScenarioSpec, sc Scale) (*plan, error) {
	if spec.Custom != nil && sc.Backend == BackendLive {
		return nil, fmt.Errorf("engine: scenario %s: a custom runner does not run on the live backend", spec.Name)
	}
	p := &plan{index: map[runKey]int{}, reps: max(sc.Reps, 1)}
	classOf := map[runKey]int{}
	for _, s := range spec.Series {
		kind := spec.EffectiveSystem(s)
		for _, r := range s.Runs {
			k := runKey{kind, r}
			if _, seen := p.index[k]; seen {
				continue
			}
			if err := checkRun(kind, ResolveBackend(r, sc), r); err != nil {
				return nil, fmt.Errorf("engine: scenario %s: series %q: %w", spec.Name, s.Label, err)
			}
			p.index[k] = len(p.runs)
			p.runs = append(p.runs, k)
			c, known := len(p.members), false
			if ResolveBackend(r, sc) == BackendMemory && !r.Genesis && !r.MeasureFromStart && convergeLen(kind, sc) > 0 {
				ck := runKey{kind, cleanPhase(r)}
				if c, known = classOf[ck]; !known {
					c = len(p.members)
					classOf[ck] = c
				}
			}
			if !known {
				p.members = append(p.members, 0)
			}
			p.members[c]++
			p.class = append(p.class, c)
		}
	}
	return p, nil
}

// Plan reports what RunScenario will do with a scenario at a scale: how
// many (run, repetition) units it simulates, in how many groups that each
// converge once, and so how many clean convergences the grouping saves
// (units − groups) — or why RunScenario would reject it at sc (see
// newPlan). A Custom scenario plans nothing.
func Plan(spec ScenarioSpec, sc Scale) (units, groups, shared int, err error) {
	p, err := newPlan(spec, sc)
	if err != nil {
		return 0, 0, 0, err
	}
	units, groups = len(p.runs)*p.reps, len(p.members)*p.reps
	return units, groups, units - groups, nil
}

// unitQueue hands a plan's units to the workers of the unit lane. A group
// of one is claimed and run from scratch. In a larger group the first
// member claimed converges the group's system and every member continues
// from it — a copy, or for the last to ask the original, so a converged
// system is garbage once its whole group has started. The claim order
// keeps at most one such system per worker alive and no worker idle while
// it could compute: members of a converged group go first, then units
// that start something new (in declaration order, which interleaves
// groups), and a worker waits only when everything unclaimed is behind a
// convergence another worker is running — time it would otherwise have
// spent computing the same thing. Any order fills the same result slots.
type unitQueue struct {
	p         *plan
	mu        sync.Mutex
	converged sync.Cond    // a group's system became available
	claimed   []bool       // per unit
	groups    []*unitGroup // per (class, rep); nil for a group of one
}

// unitGroup is the shared clean phase of the units of one group.
type unitGroup struct {
	started, ready bool
	cs             CoordSystem // the converged system, until the last member takes it
	err            error       // why there is none
	left           int         // members that have not taken a system yet
}

func newUnitQueue(p *plan) *unitQueue {
	q := &unitQueue{p: p, claimed: make([]bool, len(p.runs)*p.reps), groups: make([]*unitGroup, len(p.members)*p.reps)}
	q.converged.L = &q.mu
	for g := range q.groups {
		if n := p.members[g/p.reps]; n > 1 {
			q.groups[g] = &unitGroup{left: n}
		}
	}
	return q
}

func (q *unitQueue) group(u int) *unitGroup {
	return q.groups[q.p.class[u/q.p.reps]*q.p.reps+u%q.p.reps]
}

// next claims a unit and returns it with the system it continues from:
// nil for a group of one, otherwise its group's converged system or a copy
// — converged by this call, through converge, when the unit is the first
// of its group. The lane calls next once per unit, so one is always left.
func (q *unitQueue) next(converge func(u int) (CoordSystem, error)) (int, CoordSystem, error) {
	q.mu.Lock()
	u := -1
	for u < 0 {
		for k, done := range q.claimed {
			if g := q.group(k); done || g != nil && g.started && !g.ready {
				continue
			} else if g != nil && g.ready {
				u = k
				break
			} else if u < 0 {
				u = k
			}
		}
		if u < 0 {
			q.converged.Wait()
		}
	}
	q.claimed[u] = true
	g := q.group(u)
	if g == nil {
		q.mu.Unlock()
		return u, nil, nil
	}
	if !g.started {
		g.started = true
		q.mu.Unlock()
		g.cs, g.err = converge(u)
		q.mu.Lock()
		g.ready = true
		q.converged.Broadcast()
	}
	// Copying holds the lock: a copy must be complete before the last
	// member walks off with the original and steps it.
	from := g.cs
	if g.left--; g.left > 0 && g.err == nil {
		from = g.cs.Clone()
	} else {
		g.cs = nil
	}
	q.mu.Unlock()
	return u, from, g.err
}
