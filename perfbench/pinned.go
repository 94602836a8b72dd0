package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"whereroam/internal/serve"
)

// The output checks compare every pass with references built in
// set-up, which run the same code the passes time. A change that makes
// that code wrong the same way every time would pass them. So for the
// seeds the benchmark is run on, pinned.json holds the outputs the
// program gave when the benchmark was defined, and every set-up is
// checked against them as well. A seed that is not pinned is checked
// for repeatability only; the run says so.
//
// Regenerate the file only when the program's outputs are meant to
// change:
//
//	cd perfbench && go test -run TestPinnedReferences -update

//go:embed pinned.json
var pinnedJSON []byte

// pinnedSeeds are the seeds pinned.json covers: the seeds the benchmark
// was tuned and proved on, and the held-out seed.
var pinnedSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20071370}

// pinnedSet is the content of pinned.json.
type pinnedSet struct {
	// Scale is the federation scale the references were taken at.
	Scale float64               `json:"scale"`
	Seeds map[string]pinnedSeed `json:"seeds"`
}

// pinnedSeed is one seed's reference outputs.
type pinnedSeed struct {
	// Records and Segments describe the as-written per-site archives.
	Records  int64 `json:"records"`
	Segments int   `json:"segments"`
	// Sites are the ingest digests, in federation site order.
	Sites []siteDigest `json:"sites"`
	// Views is viewsDigest over the replay and serving references.
	Views string `json:"views"`
}

// pinnedRefs is pinned.json, decoded once.
var pinnedRefs = func() pinnedSet {
	var p pinnedSet
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		panic(fmt.Sprintf("perfbench: pinned.json: %v", err))
	}
	return p
}()

// pinned returns the run's pinned reference, if its seed and scale
// have one.
func (r *run) pinned() (pinnedSeed, bool) {
	if r.opt.scale != pinnedRefs.Scale {
		return pinnedSeed{}, false
	}
	p, ok := pinnedRefs.Seeds[strconv.FormatInt(r.opt.seed, 10)]
	return p, ok
}

// sayUnpinned notes that the run's seed is checked for repeatability
// only.
func (r *run) sayUnpinned() {
	r.say("seed %d at scale %g has no pinned reference: outputs are checked against this run's own set-up only",
		r.opt.seed, r.opt.scale)
}

// viewsDigest fingerprints every reference view the replay queries
// and the serving leg compare with: each query's view, then each
// site's analysis series, then the compare view.
func viewsDigest(r *run, sites []*site, qs []*query) string {
	h := sha256.New()
	add := func(b []byte) {
		fmt.Fprintf(h, "%d\n", len(b))
		h.Write(b)
	}
	for _, q := range qs {
		add(q.ref)
	}
	for _, s := range sites {
		for _, name := range serve.SeriesNames() {
			add(s.refSeries(name, r.workers))
		}
	}
	add(refCompare(sites, r.workers))
	return hex.EncodeToString(h.Sum(nil))
}

// checkPinnedViews compares the replay references with the pinned
// ones; a mismatch is a failed operation.
func checkPinnedViews(r *run, fx *fixture, qs []*query) {
	p, ok := r.pinned()
	if !ok {
		r.sayUnpinned()
		return
	}
	got := viewsDigest(r, fx.sites, qs)
	r.attempt(got == p.Views && fx.stats.records == p.Records && fx.stats.segments == p.Segments,
		"seed %d: reference views %.12s… over %d records in %d segments differ from the pinned %.12s… over %d records in %d segments",
		r.opt.seed, got, fx.stats.records, fx.stats.segments, p.Views, p.Records, p.Segments)
}

// matchesPinned reports whether an ingest build reproduces the pinned
// outputs.
func (ref *ingestRef) matchesPinned(p pinnedSeed) bool {
	return equalDigests(ref.digests, p.Sites) &&
		ref.stats.records == p.Records && ref.stats.segments == p.Segments
}
