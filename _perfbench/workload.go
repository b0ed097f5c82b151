package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"gendpr/internal/bench"
	"gendpr/internal/core"
)

// spec fixes one workload: the cohort it assesses, how the federation and
// the service are assembled, and how requests arrive.
type spec struct {
	name string
	// snps, genomes and scale select the cohort the way bench.Workload does:
	// genomes is the paper-scale case population, scaled with the reference
	// panel by scale; SNP counts are never scaled.
	snps, genomes int
	scale         float64
	gdos          int
	policy        core.CollusionPolicy
	// setups is how many times a run assembles the stack; setup_s is their
	// median and the last one serves the measured window.
	setups int
	// limit is the reply latency within which a correct reply counts toward
	// goodput_per_s. BENCHMARK.json states it in the workload's "why".
	limit time.Duration
	// openRate, when positive, makes the workload an open loop with this
	// many Poisson arrivals per second over two connections; zero is a
	// closed loop with one client.
	openRate float64
	// hotShapes is the number of repeated request shapes an open loop
	// mixes with fresh ones; hotShare is the share of requests that repeat
	// them.
	hotShapes int
	hotShare  float64
	// warm is the selection the warm-up request at the paper defaults must
	// return (MAF, LD, LR sizes and combinations); nil checks it against the
	// oracle only.
	warm *[4]int
}

// workloadSpec returns the named workload. tiny shrinks every size so the
// smoke test runs each workload in well under a second of protocol time.
func workloadSpec(name string, tiny bool) (spec, bool) {
	var s spec
	switch name {
	case "t4-fresh":
		// Table 4's 14,860 x 10,000 point: base-protocol LD round trips and
		// per-phase checkpoint writes carry the time.
		s = spec{snps: 10000, genomes: 14860, gdos: 3, setups: 11,
			limit: time.Second, warm: &[4]int{4599, 422, 422, 1}}
	case "g5-lattice":
		// G5 conservative: the subset-lattice walk over 31 combinations,
		// the LR selector and per-combination checkpoint writes.
		s = spec{snps: 10000, genomes: 14860, gdos: 5, setups: 5,
			policy: core.CollusionPolicy{Conservative: true},
			limit:  4 * time.Second, warm: &[4]int{4325, 380, 380, 31}}
	case "serve-mix":
		// Fig 5a's 7,430 x 1,000 point under open-loop load: small
		// per-request compute, so HTTP, admission, single flight,
		// dial+attestation and checkpoint reads carry the time.
		s = spec{snps: 1000, genomes: 7430, gdos: 3, openRate: 40, hotShapes: 4, hotShare: 0.4, setups: 101,
			limit: 500 * time.Millisecond, warm: &[4]int{489, 38, 38, 1}}
	default:
		return spec{}, false
	}
	s.name = name
	s.scale = 0.05
	if tiny {
		s.snps, s.genomes, s.scale = 300, 1600, 0.05
		s.setups = 2
		s.warm = nil
	}
	return s, true
}

// Every workload runs two federation slots, one per core of the machine the
// figures come from, and spreads its requests over four tenants.
const (
	slots   = 2
	tenants = 4
)

// cohortWorkload maps the spec onto the bench harness's scaling rules, so
// the cohort is exactly the one scripts/bench.sh measures at this point.
func (s spec) cohortWorkload() bench.Workload {
	return bench.Workload{SNPs: s.snps, Genomes: s.genomes, Scale: s.scale}
}

// assessment is one generated request: only its cutoffs and policy reach the
// program, as the JSON body of POST /assess.
type assessment struct {
	maf, ld float64
	policy  core.CollusionPolicy
	tenant  string
	// hot marks an open-loop request that repeats one of the hot shapes.
	hot bool
	// due is the open-loop send time, relative to the window start.
	due time.Duration
}

// config is the protocol configuration the service derives from the wire
// request: the paper defaults with the two cutoffs replaced.
func (a assessment) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.MAFCutoff = a.maf
	cfg.LDCutoff = a.ld
	return cfg
}

// shapeKey identifies the assessment's outcome: equal keys must produce
// equal selections.
type shapeKey struct {
	maf, ld float64
	policy  core.CollusionPolicy
}

func (a assessment) shape() shapeKey { return shapeKey{a.maf, a.ld, a.policy} }

// generator draws a workload's requests from its seed. Cutoffs scatter
// narrowly around the paper defaults (MAF 0.05, LD p-value 1e-5), so every
// draw is a fresh fingerprint while the work per request stays comparable.
type generator struct {
	spec spec
	rng  *rand.Rand
	seen map[shapeKey]bool
}

func newGenerator(s spec, seed int64) *generator {
	g := &generator{spec: s, rng: rand.New(rand.NewSource(seed)), seen: make(map[shapeKey]bool)}
	// The warm-up runs at the paper defaults; no generated request may
	// repeat it, or it would resume from the warm-up's checkpoint.
	g.seen[warmupAssessment(s).shape()] = true
	return g
}

// warmupAssessment is the request each set-up sends before timing starts.
func warmupAssessment(s spec) assessment {
	cfg := core.DefaultConfig()
	return assessment{maf: cfg.MAFCutoff, ld: cfg.LDCutoff, policy: s.policy, tenant: "warmup"}
}

// fresh draws an assessment no earlier draw of this generator has used.
func (g *generator) fresh() assessment {
	for {
		a := assessment{
			maf:    0.048 + 0.004*g.rng.Float64(),
			ld:     math.Pow(10, -5.2+0.4*g.rng.Float64()),
			policy: g.spec.policy,
			tenant: fmt.Sprintf("tenant-%d", g.rng.Intn(tenants)),
		}
		if !g.seen[a.shape()] {
			g.seen[a.shape()] = true
			return a
		}
	}
}

// openLoop returns the schedule of an open-loop workload: rate x window
// arrivals of a Poisson process conditioned on its count (uniform order
// statistics over the window), a hotShare of them repeating one of the hot
// shapes and the rest fresh. Fresh requests are the majority, so the overall
// median falls inside their latency cluster rather than in the gap between
// fresh and reused replies, where a small shift in the mix would move it far.
func (g *generator) openLoop(window time.Duration) []assessment {
	n := int(g.spec.openRate * window.Seconds())
	if n < 2 {
		n = 2
	}
	hot := make([]assessment, g.spec.hotShapes)
	for i := range hot {
		hot[i] = g.fresh()
	}
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(g.rng.Float64() * float64(window))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	isHot := make([]bool, n)
	for i := 0; i < int(g.spec.hotShare*float64(n)); i++ {
		isHot[i] = true
	}
	g.rng.Shuffle(n, func(i, j int) { isHot[i], isHot[j] = isHot[j], isHot[i] })
	out := make([]assessment, n)
	for i := range out {
		if isHot[i] {
			out[i] = hot[g.rng.Intn(len(hot))]
			out[i].hot = true
			out[i].tenant = fmt.Sprintf("tenant-%d", g.rng.Intn(tenants))
		} else {
			out[i] = g.fresh()
		}
		out[i].due = dues[i]
	}
	return out
}
