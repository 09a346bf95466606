package gradient

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// duchiProject is the sort-based Euclidean projection onto the simplex
// {x ≥ 0, Σx = z} (Duchi et al. 2008), the oracle project is checked
// against.
func duchiProject(v []float64, z float64) []float64 {
	u := append([]float64(nil), v...)
	sort.Sort(sort.Reverse(sort.Float64Slice(u)))
	theta, sum := 0.0, 0.0
	for j, uj := range u {
		sum += uj
		if t := (sum - z) / float64(j+1); uj-t > 0 {
			theta = t
		}
	}
	x := make([]float64, len(v))
	for i, vi := range v {
		x[i] = math.Max(vi-theta, 0)
	}
	return x
}

// project is the exact projection: it agrees with the sort-based one
// on random rows with negative entries, leaves nothing negative, keeps
// the row sum, and on a two-edge row is the clip.
func TestProjectMatchesSortBased(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		n := 2 + rng.Intn(5)
		v := make([]float64, n)
		idx := make([]int32, n)
		// A simplex point plus a heavy-ball-sized push that sums to zero.
		sum := 0.0
		for i := range v {
			v[i] = rng.Float64()
			sum += v[i]
			idx[i] = int32(i)
		}
		push := 0.0
		for i := range v {
			v[i] /= sum
			if i < n-1 {
				d := 0.9 * (rng.Float64() - 0.5)
				v[i] += d
				push += d
			}
		}
		v[n-1] -= push
		z := 0.0
		for _, x := range v {
			z += x
		}
		in := append([]float64(nil), v...)
		want := duchiProject(in, z)
		project(v, idx)
		got := 0.0
		for i, x := range v {
			if x < 0 {
				t.Fatalf("trial %d: project(%v)[%d] = %v < 0", trial, in, i, x)
			}
			if math.Abs(x-want[i]) > 1e-12 {
				t.Fatalf("trial %d: project(%v) = %v, sort-based %v", trial, in, v, want)
			}
			got += x
		}
		if math.Abs(got-z) > 1e-15 {
			t.Fatalf("trial %d: project(%v) sums to %v, input %v", trial, in, got, z)
		}
		if n == 2 {
			a, b := in[0], in[1]
			clip := []float64{a, b}
			switch {
			case a < 0:
				clip = []float64{0, a + b}
			case b < 0:
				clip = []float64{a + b, 0}
			}
			if k := sameBits(t, v, clip); k >= 0 {
				t.Fatalf("trial %d: project(%v) = %v, clip %v", trial, in, v, clip)
			}
		}
	}
}

// The heavy-ball serving step converges faster: one cold engine on the
// bench's sparse family at J=1000 reaches Theorem 2's tolerance within
// 2 000 iterations; Γ alone needs about 3 000.
func TestMomentumReachesStationarity(t *testing.T) {
	if testing.Short() {
		t.Skip("a few seconds of iterations")
	}
	x := build(t, sparseProblem(t, 1000), nil)
	e := New(x, Config{Eta: 0.005, Backtrack: true, DisableBlocking: true, Momentum: 0.9})
	for it := 100; it <= 2000; it += 100 {
		for i := 0; i < 100; i++ {
			e.Step()
		}
		if gap := e.Stationarity(); gap <= 5e-3 {
			t.Logf("gap %.2e after %d iterations", gap, it)
			return
		}
	}
	t.Fatalf("gap %.2e after 2000 iterations, want ≤ 5e-3", e.Stationarity())
}
