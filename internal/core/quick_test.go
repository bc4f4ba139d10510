package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/vec"
)

// Property: for random matrices, random failure sets of size <= phi at a
// random iteration, the resilient solver converges to the same solution as
// the failure-free run (within the reconstruction tolerance).
func TestESRRandomScenariosQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("randomised integration property test")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ranks := 4 + rng.Intn(4) // 4..7
		phi := 1 + rng.Intn(3)   // 1..3
		if phi >= ranks {
			phi = ranks - 1
		}
		n := 150 + rng.Intn(250)
		a := matgen.CircuitLike(n, 3, 0.3+0.4*rng.Float64(), seed)
		// Random victim set of size psi <= phi.
		psi := 1 + rng.Intn(phi)
		perm := rng.Perm(ranks)
		victims := append([]int(nil), perm[:psi]...)
		failIter := rng.Intn(8)
		sched := faults.NewSchedule(faults.Simultaneous(failIter, victims...))

		run := func(s *faults.Schedule) harnessOut {
			return runSolver(t, ranks, func(c *cluster.Comm) (Result, distmat.Vector, error) {
				e, m, x, b, err := setupProblem(c, a, phi)
				if err != nil {
					return Result{}, x, err
				}
				res, err := solveOne(e, m, x, b, blockJacobi(t, m), Options{Tol: 1e-9}, s)
				return res, x, err
			})
		}
		ref := run(nil)
		if ref.err != nil || !ref.res.Converged {
			return false
		}
		got := run(sched)
		if got.err != nil || !got.res.Converged {
			t.Logf("seed %d ranks %d phi %d victims %v: err=%v", seed, ranks, phi, victims, got.err)
			return false
		}
		scale := 1 + vec.NrmInf(ref.x)
		return vec.MaxAbsDiff(got.x, ref.x) <= 1e-5*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
