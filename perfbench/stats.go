package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// tailMinBeyond is how many samples must lie above the reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is a latency percentile together with the evidence behind it.
type tail struct {
	Pct    int     // percentile, 0..100
	Value  float64 // the sample at that percentile
	N      int     // samples in the distribution
	Beyond int     // samples strictly after the chosen rank
}

// tailOf picks the highest whole percentile from p50 up that still has
// at least tailMinBeyond samples ranked above it. With fewer than 20
// samples no such percentile exists: it reports the median and how many
// samples lie beyond it, so the reader can see the tail is not one.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The p-th percentile is the sample at rank ceil(p*n/100) (1-based);
	// Beyond is n minus that rank.
	rank := func(p int) int {
		r := int(math.Ceil(float64(p*n) / 100))
		if r < 1 {
			r = 1
		}
		return r
	}
	for p := 99; p >= 50; p-- {
		if r := rank(p); n-r >= tailMinBeyond {
			return tail{Pct: p, Value: s[r-1], N: n, Beyond: n - r}
		}
	}
	return tail{Pct: 50, Value: median(s), N: n, Beyond: n / 2}
}

func (t tail) String() string {
	return fmt.Sprintf("p%d of %d samples (%d beyond)", t.Pct, t.N, t.Beyond)
}

// ledger accounts operations: every attempt is counted, failures carry
// a reason, and only verified operations contribute a latency.
type ledger struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   map[string]int
	lat       []float64 // seconds, successful operations only
}

func (l *ledger) ok(seconds float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	l.lat = append(l.lat, seconds)
}

func (l *ledger) fail(reason string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	l.failed++
	if l.reasons == nil {
		l.reasons = map[string]int{}
	}
	l.reasons[reason]++
}

// record books one operation outcome: err nil is a verified success.
func (l *ledger) record(seconds float64, err error) {
	if err != nil {
		l.fail(err.Error())
		return
	}
	l.ok(seconds)
}

// count books operations that carry no latency of their own.
func (l *ledger) count(attempted, failed int, reason string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted += attempted
	l.failed += failed
	if failed > 0 {
		if l.reasons == nil {
			l.reasons = map[string]int{}
		}
		l.reasons[reason] += failed
	}
}

func (l *ledger) errorRate() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}
