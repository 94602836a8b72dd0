package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"whereroam/internal/catalog"
	"whereroam/internal/cdrs"
	"whereroam/internal/core"
	"whereroam/internal/dataset"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/serve"
	"whereroam/internal/store"
)

// fedConfig is the benchmark's federation: the DefaultFederationConfig
// shape (three sites, ten days) with the fleet and native populations
// scaled, seeded from the workload seed, default engine switches.
func fedConfig(seed int64, scale float64, archiveDir string) dataset.FederationConfig {
	cfg := dataset.DefaultFederationConfig()
	cfg.Seed = uint64(seed)
	cfg.GSMASeed = uint64(seed)
	cfg.FleetDevices = max(1, int(float64(cfg.FleetDevices)*scale))
	cfg.NativePerSite = max(1, int(float64(cfg.NativePerSite)*scale))
	cfg.ArchiveDir = archiveDir
	return cfg
}

// generate runs GenerateFederation, turning its configuration and
// archive-I/O panics into errors.
func generate(cfg dataset.FederationConfig) (fed *dataset.FederationDataset, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("GenerateFederation: %v", p)
		}
	}()
	return dataset.GenerateFederation(cfg), nil
}

// siteDir is where GenerateFederation archives a site's feed.
func siteDir(archiveDir string, host mccmnc.PLMN) string {
	return filepath.Join(archiveDir, "site-"+host.Concat())
}

// site is one archived site and the reference data the output checks
// compare against. The reference is folded serially from a full,
// unpruned sequential decode of the store, filtered here, so it shares
// no planning, pruning or parallel-merge code with the paths measured.
type site struct {
	name  string // roamd's mount name: the host PLMN
	dir   string
	host  mccmnc.PLMN
	start time.Time
	days  int
	recs  []cdrs.Record // every archived record, in store order
	full  *catalog.Catalog
	devs  []identity.DeviceID // distinct devices of full, ascending
}

// archiveStats describes the as-written per-site stores.
type archiveStats struct {
	records  int64
	bytes    int64
	segments int
}

// bytesPerRecord is on-disk bytes per archived record.
func (a archiveStats) bytesPerRecord() float64 {
	return float64(a.bytes) / float64(max(a.records, 1))
}

// sameRecords reports equal record and segment counts. Byte sizes are
// not compared: the archive holds records in the order the parallel
// capture delivered them, and the encoded size depends on that order.
func (a archiveStats) sameRecords(b archiveStats) bool {
	return a.records == b.records && a.segments == b.segments
}

// statArchive reads the manifests and sizes of the site stores.
func statArchive(dirs []string) (archiveStats, error) {
	var a archiveStats
	for _, dir := range dirs {
		r, err := store.Open(dir)
		if err != nil {
			return a, err
		}
		a.records += r.Manifest().TotalRecords
		a.segments += len(r.Manifest().Segments)
		n, err := dirBytes(dir)
		if err != nil {
			return a, err
		}
		a.bytes += n
	}
	return a, nil
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// loadSites decodes every site store under archiveDir, sorted by
// mount name (roamd's order), and folds each whole-window reference.
func loadSites(archiveDir string, hosts []mccmnc.PLMN) ([]*site, error) {
	var sites []*site
	for _, h := range hosts {
		st := &site{name: h.Concat(), dir: siteDir(archiveDir, h), host: h}
		r, err := store.Open(st.dir)
		if err != nil {
			return nil, err
		}
		man := r.Manifest()
		st.start, st.days = man.Start, man.Days
		if _, err := r.ReplayRecords(store.Query{}, func(rec cdrs.Record) { st.recs = append(st.recs, rec) }); err != nil {
			return nil, fmt.Errorf("decoding %s: %w", st.dir, err)
		}
		st.full = st.fold(func(*cdrs.Record) bool { return true })
		for i := range st.full.Records {
			d := st.full.Records[i].Device
			if n := len(st.devs); n == 0 || st.devs[n-1] != d {
				st.devs = append(st.devs, d)
			}
		}
		sites = append(sites, st)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].name < sites[j].name })
	return sites, nil
}

// day is a record's window day, with the store's truncation.
func (st *site) day(rec *cdrs.Record) int {
	return int(rec.Time.Sub(st.start) / (24 * time.Hour))
}

// fold builds a catalog from the records keep admits, in store order.
func (st *site) fold(keep func(*cdrs.Record) bool) *catalog.Catalog {
	b := catalog.NewBuilder(st.host, st.start, st.days, nil)
	for i := range st.recs {
		if keep(&st.recs[i]) {
			b.AddRecord(st.recs[i])
		}
	}
	return b.Build()
}

// pickDevices draws n distinct devices of the site, seeded.
func (st *site) pickDevices(rng *rand.Rand, n int) []identity.DeviceID {
	perm := rng.Perm(len(st.devs))
	out := make([]identity.DeviceID, 0, n)
	for _, i := range perm[:min(n, len(perm))] {
		out = append(out, st.devs[i])
	}
	return out
}

// The reference views, marshaled exactly as roamd marshals them
// (without the trailing newline it appends).

func (st *site) refStats(workers int) []byte {
	return mustJSON(serve.ComputeStats(st.name, st.days, st.full, workers))
}

func (st *site) refDays(lo, hi int) []byte {
	cat := st.fold(func(r *cdrs.Record) bool { d := st.day(r); return d >= lo && d <= hi })
	return mustJSON(serve.ComputeDaySlice(st.name, lo, hi, cat))
}

func (st *site) refDevice(dev identity.DeviceID, workers int) []byte {
	cat := st.fold(func(r *cdrs.Record) bool { return r.Device == dev })
	v, ok := serve.ComputeDeviceView(dev, cat, workers)
	if !ok {
		return nil
	}
	return mustJSON(v)
}

func (st *site) refSeries(name string, workers int) []byte {
	se, ok := serve.ComputeSeries(st.name, name, st.full, workers)
	if !ok {
		return nil
	}
	return mustJSON(se)
}

func refCompare(sites []*site, workers int) []byte {
	cats := map[string]*catalog.Catalog{}
	for _, st := range sites {
		cats[st.name] = st.full
	}
	return mustJSON(serve.ComputeCompare(cats, workers))
}

// mustJSON marshals a view type; they hold only plain fields, so an
// error is a bug.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// siteDigest fingerprints one site's ingest outputs: its catalog,
// its classification and the validation confusion matrix.
type siteDigest struct {
	Catalog  string  `json:"catalog"`
	Classes  string  `json:"classes"`
	Accuracy float64 `json:"accuracy"`
	Total    int     `json:"total"`
}

// digestSite hashes a site's catalog (CSV form) and results.
func digestSite(cat *catalog.Catalog, res []core.Result, val *core.Validation) (siteDigest, error) {
	h := sha256.New()
	if err := cat.WriteCSV(h); err != nil {
		return siteDigest{}, err
	}
	d := siteDigest{Catalog: hex.EncodeToString(h.Sum(nil)), Accuracy: val.Accuracy(), Total: val.Total}
	h.Reset()
	for i := range res {
		fmt.Fprintf(h, "%v %v %s\n", res[i].Device, res[i].Class, res[i].Evidence)
	}
	d.Classes = hex.EncodeToString(h.Sum(nil))
	return d, nil
}

// workDir creates a fresh directory under root.
func workDir(root, pattern string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, pattern)
}

// fixture is the shared seeded archive after set-up.
type fixture struct {
	dir   string
	sites []*site
	stats archiveStats
}

// setupArchive builds the seeded archive setupReps times and keeps the
// last build; setup_s is the median build time. Each build is decoded
// into the reference untimed: the archive holds the same records every
// time, but in the order the parallel capture delivered them, so its
// bytes can differ from build to build.
func setupArchive(r *run) (*fixture, error) {
	fx := &fixture{}
	var setup sample
	for rep := 0; rep < r.opt.setupReps; rep++ {
		if rep > 0 {
			os.RemoveAll(fx.dir)
		}
		fx.dir = filepath.Join(r.opt.work, fmt.Sprintf("archive-%d", rep))
		t0 := time.Now()
		fed, err := generate(fedConfig(r.opt.seed, r.opt.scale, fx.dir))
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if fx.sites, err = loadSites(fx.dir, fed.Hosts); err != nil {
			return nil, err
		}
		var dirs []string
		for _, s := range fx.sites {
			dirs = append(dirs, s.dir)
		}
		if fx.stats, err = statArchive(dirs); err != nil {
			return nil, err
		}
	}
	r.set("setup_s", setup.median(), "s", fmt.Sprintf("median of %d set-ups", len(setup)))
	return fx, nil
}
