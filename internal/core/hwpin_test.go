package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	hwp "contiguitas/internal/hw"
	"contiguitas/internal/hw/contighw"
	"contiguitas/internal/hw/platform"
	"contiguitas/internal/stats"
)

// The digests below pin the cycle-level hardware model's simulated
// output. They were captured from the model before its caches and TLBs
// moved to flat tag arrays; a change that is meant to be a pure speed-up
// of internal/hw must leave every one of them unchanged. A change that
// alters simulated behaviour on purpose updates them and says why.
const (
	serveDigest          = "d2496c0b0712464df3707a544ac7e3bb6c7c820636ccf653297b8209711fd003"
	streamDigestNoncache = "17eeff551113c4c275eb1d664217de82cb1912a10e07675f92f9373db0716545"
	streamDigestCache    = "2964a50e021b47aaa5cebda599468df7aa5997e18a4043da78f9086eea63b327"
)

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestHWModelPinnedServe(t *testing.T) {
	var b strings.Builder
	for _, r := range Sec53(600_000) {
		fmt.Fprintf(&b, "%s %v %g %d %g\n", r.App, r.Mode, r.Rate, r.Requests, r.LossPct)
	}
	fmt.Fprintf(&b, "gain %g\n", MemcachedHugePageGain())
	// At 600k cycles the §5.3 rates never fire a migration, so also pin
	// full serving results (latency percentiles included) with migrations
	// every 100k cycles.
	for _, cfg := range []platform.ServeConfig{nginxServe(600_000), memcachedServe(600_000)} {
		for _, mode := range []contighw.Mode{contighw.Noncacheable, contighw.Cacheable} {
			md := mode
			cfg.MigrationsPerSec = 20_000
			fmt.Fprintf(&b, "%v %+v\n", mode, platform.ServeBenchmark(platform.NewMachine(hwp.DefaultParams(), &md), cfg))
		}
	}
	if got := digest(b.String()); got != serveDigest {
		t.Fatalf("serve digest = %s, want %s\n%s", got, serveDigest, b.String())
	}
}

// pinnedStream drives a seeded 300k-access mixed load/store stream over
// all cores of one machine: Zipf-skewed 4 KB app pages, a 2 MB huge
// region, and a pool of buffer pages that the NIC writes and reads by
// DMA while Contiguitas-HW migrates them. It returns a text record of the
// cache and TLB counters and a hash of every value and completion cycle
// the accesses observed.
func pinnedStream(t *testing.T, mode contighw.Mode) string {
	t.Helper()
	const (
		steps    = 300_000
		appPages = 6144
		bufBase  = 8192
		bufPages = 32
		hugeVPN  = 64 // 2 MB region: VPNs [32768, 33280)
		hugePPN  = 128
	)
	md := mode
	m := platform.NewMachine(hwp.DefaultParams(), &md)
	for i := uint64(0); i < bufPages; i++ {
		m.MapPage(bufBase+i, bufBase+i)
	}
	m.MapHugePage(hugeVPN, hugePPN)
	rng := stats.NewRNG(11)
	zipf := stats.NewZipf(rng, appPages, 0.8)
	nextFree := uint64(1 << 20)
	h := fnv.New64a()
	var word [8]byte
	mix := func(x uint64) {
		for i := range word {
			word[i] = byte(x >> (8 * i))
		}
		h.Write(word[:])
	}

	var now uint64
	var started, refused int
	for i := 0; i < steps; i++ {
		if i%16 == 0 {
			va := uint64(bufBase+rng.Intn(bufPages))<<hwp.PageShift + uint64(rng.Intn(hwp.LinesPerPage))*hwp.LineBytes
			v, done := m.DeviceAccess(va, rng.Bool(0.5), uint64(i), now)
			mix(v)
			mix(done)
			now = done
		}
		if i%5000 == 0 {
			vpn := uint64(bufBase + rng.Intn(bufPages))
			if err := m.StartHWMigration(vpn, m.PageTableLookup(vpn), nextFree, platform.HWMigrateOptions{}, nil); err != nil {
				refused++
			} else {
				started++
			}
			nextFree++
		}
		var vpn uint64
		switch r := rng.Float64(); {
		case r < 0.7:
			vpn = uint64(zipf.Next())
		case r < 0.85:
			vpn = uint64(bufBase + rng.Intn(bufPages))
		default:
			vpn = hugeVPN<<9 + uint64(rng.Intn(512))
		}
		va := vpn<<hwp.PageShift + uint64(rng.Intn(hwp.LinesPerPage))*hwp.LineBytes
		v, done := m.Access(rng.Intn(m.P.Cores), va, rng.Bool(0.3), uint64(i), now)
		mix(v)
		mix(done)
		now = done
		if i%64 == 63 {
			m.Eng.RunUntil(now)
		}
	}
	m.Eng.RunUntil(now)
	if err := m.H.CheckInclusion(); err != nil {
		t.Fatalf("%v: %v", mode, err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n", m.H.Stats)
	for c, pc := range m.TLBs {
		fmt.Fprintf(&b, "core %d tlb L1 %d/%d huge %d/%d L2 %d/%d walks %d/%d\n", c,
			pc.L1.Hits, pc.L1.Misses, pc.L1Huge.Hits, pc.L1Huge.Misses,
			pc.L2.Hits, pc.L2.Misses, pc.Walks, pc.HugeWalks)
	}
	fmt.Fprintf(&b, "migrations %d refused %d invlpgs %d now %d values %x\n",
		started, refused, m.Invlpgs, m.Eng.Now(), h.Sum64())
	return b.String()
}

func TestHWModelPinnedAccessStream(t *testing.T) {
	for _, tc := range []struct {
		mode contighw.Mode
		want string
	}{
		{contighw.Noncacheable, streamDigestNoncache},
		{contighw.Cacheable, streamDigestCache},
	} {
		rec := pinnedStream(t, tc.mode)
		if got := digest(rec); got != tc.want {
			t.Errorf("%v: access-stream digest = %s, want %s\n%s", tc.mode, got, tc.want, rec)
		}
	}
}
