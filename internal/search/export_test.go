package search

import (
	"crypto/sha256"

	"nose/internal/enumerator"
	"nose/internal/workload"
)

// ProgramFingerprints formulates w's programs as Advise does, or as
// AdvisePinned does over pool when pool is non-nil, and returns the
// fingerprint of phase 1's program and of the phase-2 program derived
// from phase 1's optimum; phase2 is nil when no phase 2 runs (a pinned
// pool, which is evaluated, not solved).
func ProgramFingerprints(w *workload.Workload, pool *enumerator.Pool, opt Options) (phase1 [sha256.Size]byte, phase2 *[sha256.Size]byte, err error) {
	opt = opt.withDefaults()
	enumRes := &enumerator.Result{Pool: pool}
	if pool == nil {
		if enumRes, err = enumerator.EnumerateWorkloadCtx(opt.Ctx, w, opt.Enumerator, nil); err != nil {
			return phase1, nil, err
		}
	}
	p, err := prepare(w, nil, enumRes, pool != nil, opt, &SeriesRecommendation{})
	if err != nil {
		return phase1, nil, err
	}
	phase1 = p.prog.Fingerprint()
	if pool != nil {
		return phase1, nil, nil
	}
	bopt := opt.BIP
	bopt.Incumbent = p.incumbent
	res1, err := p.prog.Solve(bopt)
	if err != nil {
		return phase1, nil, err
	}
	fp := p.phase2(res1.Objective).Fingerprint()
	return phase1, &fp, nil
}
