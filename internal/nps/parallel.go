package nps

// Sharder is the minimal sharded-execution contract the parallel step
// needs; it is satisfied by engine.Pool. Declared here (as in package
// vivaldi) so this package carries no engine dependency. NumShards must be
// a pure function of n — never of the worker count — since this package
// sizes per-shard accumulators with it.
type Sharder interface {
	ForEach(n int, fn func(shard, lo, hi int))
	NumShards(n int) int
}

// StepParallel runs one positioning round sharded across sh: every
// non-landmark node repositions once, layer by layer — the one loop that
// advances a deployment (Step is its one-shard form). Malicious nodes
// still reposition — they must look like normal participants — but their
// *reported* state is whatever their tap forges. The layer order is
// inherent to NPS — references must position before their dependents —
// but within a layer every node's solve is independent. The round
// decomposes, per layer, into:
//
//   - a serial probe sweep in node order: probing consults attack taps,
//     which hold mutable state (RNG streams, per-victim caches) shared
//     across victims, so replies are collected in the same fixed order
//     every run;
//   - a sharded solve phase: the security filter and the Simplex Downhill
//     minimization touch only node-local state plus a FilterStats
//     accumulator, which is kept per shard and reduced in shard order.
//
// Within one layer, probes read only the coordinates of the layer above
// (already final for this round) and of the probing node itself (not yet
// repositioned), so collecting all replies before any solve preserves a
// consistent view. The result is bit-identical for any worker count.
func (s *System) StepParallel(sh Sharder) {
	s.round++
	for layer := 1; layer < s.cfg.Layers; layer++ {
		ids := s.byLayer[layer]
		if len(ids) == 0 {
			continue
		}
		if cap(s.parSlots) < len(ids) {
			grown := make([]sampleSlot, len(ids))
			copy(grown, s.parSlots) // keep already-warm buffers
			s.parSlots = grown
		}
		slots := s.parSlots[:len(ids)]

		// Phase 1 (serial, fixed order): collect every node's usable
		// reference measurements, consulting taps exactly once per probe.
		// Each slot's sample and coordinate-arena buffers persist across
		// rounds, so a steady round does not reallocate here.
		for k, i := range ids {
			s.collectSamplesInto(i, &slots[k])
		}

		// Phase 2 (sharded): filter + solve. Filter stats and the solver
		// scratch are per shard — the scratch (simplex vertices, anchor
		// rows, median buffer) is owned by the shard for the whole phase,
		// never shared, which is the solver-scratch ownership rule that
		// keeps this phase allocation-free and race-free.
		num := sh.NumShards(len(ids))
		if cap(s.shardStats) < num {
			s.shardStats = make([]FilterStats, num)
		}
		shardStats := s.shardStats[:num]
		for k := range shardStats {
			shardStats[k] = FilterStats{}
		}
		for len(s.shardScratch) < num {
			s.shardScratch = append(s.shardScratch, &solveScratch{})
		}
		sh.ForEach(len(ids), func(shard, lo, hi int) {
			sc := s.shardScratch[shard]
			for k := lo; k < hi; k++ {
				s.positionWith(ids[k], slots[k].samples, &shardStats[shard], sc)
			}
		})
		// Reduce in shard order (integer sums: order-independent anyway).
		for _, st := range shardStats {
			s.stats.Total += st.Total
			s.stats.Malicious += st.Malicious
		}
	}
}
