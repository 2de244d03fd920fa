package engine

import "fmt"

// checkRun is the one rule for what a coordinate system can do on an
// execution backend. ScenarioSpec.Validate applies it with the backend a
// run pins, at registration; the plan applies it with the backend the run
// resolves to at the scale, so RunScenario rejects a Scale.Backend override
// it cannot honour before it builds anything. Past the plan, every
// capability a run uses is guaranteed: runUnit and campaign dispatch reach
// it on the concrete system without an ok branch.
//
//	                           vivaldi/memory  vivaldi/live  nps/memory
//	RunSpec.Harden             yes             yes           no
//	RunSpec.Faults             no              yes           no
//	RunSpec.ChurnFrac > 0      yes             yes           no
//	attack phase               yes             yes           yes
//	partition, churn phase     yes             yes           no
//	fault phase                no-op           yes           no
//	SelAll, SelFrac, SelIDs    yes             yes           yes
//	SelDegree (spring graph)   yes             yes           no
//
// There is no nps/live column: the live backend implements Vivaldi only.
// A fault phase on the memory backend is the one documented no-op: there
// is no packet network to mutate, and a schedule that mixes faults with
// other phases (campaignFull) runs its other phases on both backends.
func checkRun(kind SystemKind, backend ExecBackend, r RunSpec) error {
	vivaldi := kind == SystemVivaldi
	switch {
	case backend == BackendLive && !vivaldi:
		return fmt.Errorf("the live backend implements vivaldi only (got %s)", kind)
	case r.Harden.Enabled() && !vivaldi:
		return fmt.Errorf("hardening options apply to vivaldi only (got %s)", kind)
	case r.Faults != (FaultSpec{}) && backend != BackendLive:
		return fmt.Errorf("run-level faults require the live backend (the %s backend has no packet network)", backend)
	case r.ChurnFrac < 0 || r.ChurnFrac > 1:
		return fmt.Errorf("ChurnFrac must be in [0,1], got %g", r.ChurnFrac)
	case r.ChurnFrac > 0 && !vivaldi:
		return fmt.Errorf("churn needs vivaldi (got %s)", kind)
	}
	if r.Schedule == nil || vivaldi {
		return nil
	}
	for pi, ph := range r.Schedule.Phases {
		if ph.Attack == nil {
			return fmt.Errorf("phase %d: %s phases need vivaldi (got %s)", pi, ph.action(), kind)
		}
		if ph.Attack.Sel.Kind == SelDegree {
			return fmt.Errorf("phase %d: selector %q needs a spring graph, so vivaldi (got %s)", pi, SelDegree, kind)
		}
	}
	return nil
}
