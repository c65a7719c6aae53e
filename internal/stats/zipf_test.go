package stats

import (
	"math"
	"testing"
)

// refZipfRank is the binary search of the cumulative table that Next
// used before it had a guide table; the guided draw must agree with it
// on every u.
func refZipfRank(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// checkZipfEdges forces draws on and around every bucket edge k/n and
// every cumulative value, where the rounding of u*n and of the table
// decides which side a draw lands on.
func checkZipfEdges(t *testing.T, name string, z *Zipf) {
	t.Helper()
	n := len(z.cum)
	var edges []float64
	for k := 0; k <= n; k++ {
		edges = append(edges, float64(k)/float64(n))
	}
	edges = append(edges, z.cum...)
	for _, e := range edges {
		for _, u := range []float64{math.Nextafter(e, 0), e, math.Nextafter(e, 1)} {
			if u < 0 || u >= 1 {
				continue
			}
			if got, want := z.rank(u), refZipfRank(z.cum, u); got != want {
				t.Fatalf("%s u=%v: guided rank %d, binary search %d", name, u, got, want)
			}
		}
	}
}

func TestZipfGuidedMatchesBinarySearch(t *testing.T) {
	const draws = 1_000_000
	for _, n := range []int{1, 2, 7, 4096, 8192} {
		for _, s := range []float64{0.5, 0.9, 1.2} {
			seed := uint64(n)*31 + uint64(s*10)
			z := NewZipf(NewRNG(seed), n, s)
			// A second generator on the same seed replays every u.
			ref := NewRNG(seed)
			for d := 0; d < draws; d++ {
				u := ref.Float64()
				if got, want := z.Next(), refZipfRank(z.cum, u); got != want {
					t.Fatalf("n=%d s=%g draw %d u=%v: guided rank %d, binary search %d", n, s, d, u, got, want)
				}
			}
			checkZipfEdges(t, "zipf", z)
		}
	}
}

// TestZipfGuideFallback covers the draw whose guide entry is past its
// rank: u sits one ulp below the bucket edge 9/10, u*10 rounds up to 9,
// and a cumulative value equals u. Real Zipf tables rarely put a value
// there, so the table is made by hand.
func TestZipfGuideFallback(t *testing.T) {
	u := math.Nextafter(0.9, 0)
	if int(u*10) != 9 {
		t.Fatalf("u*10 = %v does not round up to the bucket edge", u*10)
	}
	cum := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, u, 1}
	z := &Zipf{cum: cum, guide: zipfGuide(cum)}
	if g := z.guide[9]; g != 9 {
		t.Fatalf("guide[9] = %d, want 9 (the first rank at or past 9/10)", g)
	}
	if got := z.rank(u); got != 8 {
		t.Fatalf("rank(%v) = %d, want 8", u, got)
	}
	checkZipfEdges(t, "hand-made", z)
}
