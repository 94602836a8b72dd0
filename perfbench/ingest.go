package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"whereroam/internal/core"
	"whereroam/internal/dataset"
	"whereroam/internal/store"
)

// The ingest workload is the write side, run the way fedsim -archive,
// roamstore compact and the fed-validation runner run it: one pass is
// GenerateFederation with ArchiveDir set, store.Compact per site, then
// per site SummariesWorkers, ClassifyWorkers and Validate against the
// site's ground truth.

// siteOut is one site's classification outputs from a pass.
type siteOut struct {
	site *dataset.FederationSite
	res  []core.Result
	val  *core.Validation
}

// ingestOut is one pass's outputs, wall time and per-call timings.
type ingestOut struct {
	wall      time.Duration
	sites     []siteOut
	archive   string
	compacted []string

	generate, compact, summaries, classify, validate time.Duration
	allocMiB                                         float64
}

// ingestPass runs one pass into dir. On a traced pass the generator's
// allocation volume is read around it as well.
func ingestPass(r *run, dir string, traced bool) (*ingestOut, error) {
	out := &ingestOut{archive: filepath.Join(dir, "archive")}
	var ms0, ms1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	t0 := time.Now()
	fed, err := generate(fedConfig(r.opt.seed, r.opt.scale, out.archive))
	if err != nil {
		return nil, err
	}
	out.generate = time.Since(t0)
	if traced {
		runtime.ReadMemStats(&ms1)
		out.allocMiB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	}
	for _, s := range fed.Sites {
		dst := filepath.Join(dir, "compact", "site-"+s.Host.Concat())
		t := time.Now()
		if _, err := store.Compact(dst, []string{siteDir(out.archive, s.Host)}, store.CompactOptions{TempDir: dir}); err != nil {
			return nil, fmt.Errorf("compacting %s: %w", s.Host, err)
		}
		out.compact += time.Since(t)
		out.compacted = append(out.compacted, dst)
	}
	for _, s := range fed.Sites {
		t := time.Now()
		sums := s.Catalog.SummariesWorkers(fed.GSMA, r.workers)
		out.summaries += time.Since(t)
		t = time.Now()
		res := core.NewClassifier().ClassifyWorkers(sums, r.workers)
		out.classify += time.Since(t)
		t = time.Now()
		val, err := core.Validate(res, s.Truth)
		out.validate += time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("validating %s: %w", s.Host, err)
		}
		out.sites = append(out.sites, siteOut{site: s, res: res, val: val})
	}
	out.wall = time.Since(t0)
	return out, nil
}

// digests fingerprints every site's outputs.
func (o *ingestOut) digests() ([]siteDigest, error) {
	var out []siteDigest
	for _, s := range o.sites {
		d, err := digestSite(s.site.Catalog, s.res, s.val)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// ingestRef is the reference a pass must reproduce.
type ingestRef struct {
	digests []siteDigest
	stats   archiveStats
}

// setupIngest builds the seeded archive setupReps times (setup_s is
// the median) and keeps the first build's outputs as the reference.
// Every later build must reproduce it, and every build the outputs
// pinned for the seed.
func setupIngest(r *run) (*ingestRef, error) {
	var ref *ingestRef
	var setup sample
	for rep := 0; rep < r.opt.setupReps; rep++ {
		dir, err := workDir(r.opt.work, "setup-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		fed, err := generate(fedConfig(r.opt.seed, r.opt.scale, dir))
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		got := &ingestRef{}
		var dirs []string
		for _, s := range fed.Sites {
			sums := s.Catalog.SummariesWorkers(fed.GSMA, r.workers)
			res := core.NewClassifier().ClassifyWorkers(sums, r.workers)
			val, err := core.Validate(res, s.Truth)
			if err != nil {
				return nil, fmt.Errorf("validating %s: %w", s.Host, err)
			}
			d, err := digestSite(s.Catalog, res, val)
			if err != nil {
				return nil, err
			}
			got.digests = append(got.digests, d)
			dirs = append(dirs, siteDir(dir, s.Host))
		}
		if got.stats, err = statArchive(dirs); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
		if p, ok := r.pinned(); ok {
			r.attempt(got.matchesPinned(p), "set-up build %d differs from the outputs pinned for seed %d", rep, r.opt.seed)
		}
		if ref == nil {
			ref = got
			continue
		}
		r.attempt(equalDigests(ref.digests, got.digests) && ref.stats.sameRecords(got.stats),
			"set-up build %d differs from the first build of the same seed", rep)
	}
	if _, ok := r.pinned(); !ok {
		r.sayUnpinned()
	}
	r.set("setup_s", setup.median(), "s", fmt.Sprintf("median of %d archive builds", len(setup)))
	return ref, nil
}

func equalDigests(a, b []siteDigest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkPass compares a pass with the reference: per-site catalog and
// classification digests, the as-written archive's record and segment
// counts, and Verify on every compacted store holding every archived
// record. On traced passes it also reports the store layer's volumes
// and times store.Open on the as-written stores.
func checkPass(r *run, ref *ingestRef, out *ingestOut, l *layers, opens *sample) {
	dg, err := out.digests()
	if err != nil {
		r.fail(err)
		return
	}
	for i := range ref.digests {
		r.attempt(i < len(dg) && dg[i] == ref.digests[i], "ingest site %d: catalog or classification digest differs from the reference", i)
	}
	var dirs []string
	for _, s := range out.sites {
		dirs = append(dirs, siteDir(out.archive, s.site.Host))
	}
	if opens != nil {
		t := time.Now()
		for _, dir := range dirs {
			if _, err := store.Open(dir); err != nil {
				r.fail(err)
			}
		}
		*opens = append(*opens, time.Since(t).Seconds())
	}
	st, err := statArchive(dirs)
	r.attempt(err == nil && st.sameRecords(ref.stats), "ingest archive %+v differs from the reference %+v (%v)", st, ref.stats, err)
	var compacted int64
	for _, dir := range out.compacted {
		rd, err := store.Open(dir)
		if err != nil {
			r.fail(err)
			continue
		}
		v := rd.Verify()
		r.attempt(v.OK(), "compacted store %s: %v", dir, v)
		compacted += rd.Manifest().TotalRecords
	}
	r.attempt(compacted == ref.stats.records, "compacted stores hold %d records, the archive %d", compacted, ref.stats.records)
	if l != nil {
		var bytesOut int64
		for _, dir := range out.compacted {
			n, err := dirBytes(dir)
			if err != nil {
				r.fail(err)
			}
			bytesOut += n
		}
		l.set("store.compact_bytes_out", float64(bytesOut))
		l.set("store.archive_bytes", float64(st.bytes))
		l.set("store.archive_segments", float64(st.segments))
	}
}

// runIngest is the ingest workload.
func runIngest(r *run) error {
	ref, err := setupIngest(r)
	if err != nil {
		return err
	}
	var l *layers
	var heap *heapSampler
	if r.opt.trace {
		l = newLayers(r)
		heap = startHeapSampler()
	}
	var rates, walls, plainWalls sample
	var gen, alloc, compact, sums, classify, validate, opens sample
	deadline := time.Now().Add(time.Duration(r.opt.seconds * float64(time.Second)))
	for i := 0; i < r.minPasses() || time.Now().Before(deadline); i++ {
		traced := r.opt.trace && i%2 == 1
		dir, err := workDir(r.opt.work, "ingest-")
		if err != nil {
			return err
		}
		out, err := ingestPass(r, dir, traced)
		if !r.attempt(err == nil, "ingest pass: %v", err) {
			os.RemoveAll(dir)
			continue
		}
		if traced {
			walls = append(walls, out.wall.Seconds())
			gen = append(gen, out.generate.Seconds())
			alloc = append(alloc, out.allocMiB)
			compact = append(compact, out.compact.Seconds())
			sums = append(sums, out.summaries.Seconds())
			classify = append(classify, out.classify.Seconds())
			validate = append(validate, out.validate.Seconds())
			checkPass(r, ref, out, l, &opens)
		} else {
			plainWalls = append(plainWalls, out.wall.Seconds())
			rates = append(rates, float64(ref.stats.records)/out.wall.Seconds())
			checkPass(r, ref, out, nil, nil)
		}
		os.RemoveAll(dir)
	}
	if r.opt.trace {
		l.set("dataset.generate_s", gen.median())
		l.set("dataset.generate_alloc_mib", alloc.median())
		l.set("store.compact_s", compact.median())
		l.set("catalog.summaries_s", sums.median())
		l.set("core.classify_s", classify.median())
		l.set("core.validate_s", validate.median())
		l.set("store.open_s", opens.median())
		l.set("process.heap_peak_mib", heap.stopMiB())
		if len(walls) > 0 && len(plainWalls) > 0 {
			l.set("process.tracing_overhead", walls.median()/plainWalls.median()-1)
		}
		r.say("traced run: %d untraced and %d traced passes", len(plainWalls), len(walls))
		l.flush()
		return nil
	}
	if len(rates) == 0 {
		return fmt.Errorf("no ingest pass completed")
	}
	ms := sample{}
	for _, w := range plainWalls {
		ms = append(ms, w*1000)
	}
	r.set("ops_per_s", rates.median(), "op/s", fmt.Sprintf("records_per_s: %d archived records per pass, median of %d passes", ref.stats.records, len(rates)))
	r.say("%-34s %14.6g %-6s", "records_per_s", rates.median(), "rec/s")
	r.set("p50_ms", ms.rank(0.5), "ms", fmt.Sprintf("pass wall time, n=%d", len(ms)))
	r.set("p99_ms", ms.rank(0.99), "ms", fmt.Sprintf("pass wall time, n=%d", len(ms)))
	r.set("bytes_per_record", ref.stats.bytesPerRecord(), "B", fmt.Sprintf("as-written archive: %d bytes, %d records, %d segments", ref.stats.bytes, ref.stats.records, ref.stats.segments))
	return nil
}
