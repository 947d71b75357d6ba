// Package experiments regenerates every figure of the paper's evaluation
// (§6) from this repository's components. Each FigNN function returns the
// figure's rows/series as plain data; cmd/bidsim, cmd/agilebench,
// cmd/tracegen and the repository benchmarks print or time them.
//
// Cost/market figures (1, 8, 9, 10) run the core scheme simulator over
// synthetic spot-price histories, averaging many randomly-offset job
// starts as the paper averages 1000 start points per zone. Architecture
// figures (11–15) come from the perfmodel iteration-time model.
// Figure 16 runs the functional AgileML stack (real parameter servers,
// real MF training, real bulk addition and eviction) and reports modeled
// per-iteration times alongside the measured objective.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"proteus/internal/bidbrain"
	"proteus/internal/checkpoint"
	"proteus/internal/core"
	"proteus/internal/market"
	"proteus/internal/obs"
	"proteus/internal/sim"
	"proteus/internal/trace"
)

// MarketConfig parameterizes the simulated market environment shared by
// the cost experiments.
type MarketConfig struct {
	Seed        int64
	EvalDays    int // evaluation window length
	TrainDays   int // history window used to train β tables
	BetaSamples int // samples per bid delta when training β
	// Zones is the number of availability zones to average over, each
	// with independently-moving prices. The paper analyzes "the US-EAST-1
	// region (all 4 zones)" (§6.3). Zero means 1.
	Zones int
	// Observer, when set, instruments every market and Brain the config
	// builds. Counters aggregate across all sample runs, so the exported
	// totals cover the whole experiment. Harnesses give each task a
	// private child observer and merge them back in task order, so the
	// aggregate is identical at every worker count.
	Observer *obs.Observer
	// Parallel bounds the worker fan-out of β-table training and of the
	// harnesses whose tasks are whole runs (the two-arm studies, the zone
	// and preemptible samples; not RunSchemes, whose cells take
	// microseconds): <= 0 means runtime.GOMAXPROCS(0), 1 runs fully serial.
	// Every harness seeds tasks from (seed, task index) and folds ordered
	// per-task results, so output is bit-identical at every setting.
	Parallel int
}

// DefaultMarketConfig mirrors the paper's split: β trained on ~3 months
// of history, evaluated on a later window (here compressed for test
// speed; cmd/bidsim can raise the windows).
func DefaultMarketConfig() MarketConfig {
	return MarketConfig{Seed: 1, EvalDays: 14, TrainDays: 30, BetaSamples: 400, Zones: 4}
}

// zoneSeeds expands the base seed into one seed per availability zone.
func (c MarketConfig) zoneSeeds() []int64 {
	zones := c.Zones
	if zones <= 0 {
		zones = 1
	}
	out := make([]int64, zones)
	for i := range out {
		out[i] = c.Seed + int64(i)*1_000_003
	}
	return out
}

// Env bundles one ready-to-run market environment.
type Env struct {
	Engine *sim.Engine
	Market *market.Market
	Brain  *bidbrain.Brain
}

// NewEnv builds a fresh engine+market over the config's evaluation trace
// and a Brain trained on the disjoint history window.
func NewEnv(cfg MarketConfig, params bidbrain.Params) (*Env, error) {
	z, err := buildZoneEnv(cfg)
	if err != nil {
		return nil, err
	}
	return z.newEnv(params, cfg.Observer)
}

// zoneEnv caches the expensive, read-only pieces of one zone's market
// environment: the generated evaluation price traces and the β tables
// trained on the zone's history window. Both are immutable after
// construction (lazy trace integrals build under a sync.Once), so one
// zoneEnv serves every (scheme, sample) cell of the zone — concurrently
// — while each cell still gets its own engine, market, and Brain.
// Skipping the per-cell regeneration is where the experiment harness
// gets most of its speed: trace synthesis plus β training dominates a
// cell's cost, and every cell of a zone was rebuilding identical copies.
type zoneEnv struct {
	catalog []market.InstanceType
	eval    *trace.Set
	betas   map[string]*trace.BetaTable
}

// zoneKey identifies the inputs that determine a zoneEnv bit-for-bit.
// Parallel is deliberately absent: β training is bit-identical at every
// worker count, so fan-out width must not fragment the cache.
type zoneKey struct {
	seed        int64
	evalDays    int
	trainDays   int
	betaSamples int
}

// zoneCache memoizes zoneEnv builds process-wide. A zoneEnv is immutable
// and already serves concurrent cells, so handing the same pointer to
// every harness that asks for the same market is safe and skips the
// trace synthesis + β training that dominates environment construction.
// FIFO-bounded so long-running processes sweeping seeds stay flat.
var zoneCache = struct {
	sync.Mutex
	entries map[zoneKey]*zoneEnv
	order   []zoneKey
}{entries: make(map[zoneKey]*zoneEnv)}

const zoneCacheCap = 8

// buildZoneEnv returns the zone's shared environment, building traces
// and β tables on a cache miss. β training fans out over cfg.Parallel
// workers; the result is bit-identical at every worker count, so cache
// hits cannot change any output.
func buildZoneEnv(cfg MarketConfig) (*zoneEnv, error) {
	key := zoneKey{seed: cfg.Seed, evalDays: cfg.EvalDays, trainDays: cfg.TrainDays, betaSamples: cfg.BetaSamples}
	zoneCache.Lock()
	z, ok := zoneCache.entries[key]
	zoneCache.Unlock()
	if ok {
		return z, nil
	}
	z, err := buildZoneEnvUncached(cfg)
	if err != nil {
		return nil, err
	}
	zoneCache.Lock()
	if cached, ok := zoneCache.entries[key]; ok {
		// A concurrent build won the race; keep the first pointer so every
		// holder shares one copy.
		z = cached
	} else {
		if len(zoneCache.order) >= zoneCacheCap {
			oldest := zoneCache.order[0]
			zoneCache.order = zoneCache.order[1:]
			delete(zoneCache.entries, oldest)
		}
		zoneCache.entries[key] = z
		zoneCache.order = append(zoneCache.order, key)
	}
	zoneCache.Unlock()
	return z, nil
}

// buildZoneEnvUncached generates the zone's traces and trains its β
// tables.
func buildZoneEnvUncached(cfg MarketConfig) (*zoneEnv, error) {
	catalog := market.DefaultCatalog()
	prices := market.CatalogPrices(catalog)

	hist := trace.GenerateSet("train", time.Duration(cfg.TrainDays)*24*time.Hour, prices, cfg.Seed+100000)
	betas := make(map[string]*trace.BetaTable)
	for name := range prices {
		tr, ok := hist.Get(name)
		if !ok {
			return nil, fmt.Errorf("experiments: missing history for %s", name)
		}
		betas[name] = trace.BuildBetaTableParallel(tr, trace.DefaultDeltas(), cfg.BetaSamples, cfg.Seed, cfg.Parallel)
	}
	eval := trace.GenerateSet("eval", time.Duration(cfg.EvalDays)*24*time.Hour, prices, cfg.Seed)
	return &zoneEnv{catalog: catalog, eval: eval, betas: betas}, nil
}

// newEnv assembles a private engine+market+Brain over the shared zone
// state. observer may be nil (uninstrumented).
func (z *zoneEnv) newEnv(params bidbrain.Params, observer *obs.Observer) (*Env, error) {
	brain, err := bidbrain.New(params, z.betas, nil)
	if err != nil {
		return nil, err
	}
	if observer != nil {
		brain.SetObserver(observer)
	}
	eng := sim.NewEngine()
	mkt, err := market.New(eng, market.Config{
		Catalog:  z.catalog,
		Traces:   z.eval,
		Warning:  2 * time.Minute,
		Observer: observer,
	})
	if err != nil {
		return nil, err
	}
	return &Env{Engine: eng, Market: mkt, Brain: brain}, nil
}

// SchemeKind selects one of the paper's four schemes.
type SchemeKind int

const (
	// SchemeOnDemand is the traditional all-on-demand baseline.
	SchemeOnDemand SchemeKind = iota
	// SchemeStandardCheckpoint is the standard bidding strategy with
	// checkpoint/restart elasticity.
	SchemeStandardCheckpoint
	// SchemeStandardAgileML is the standard bidding strategy with
	// AgileML elasticity.
	SchemeStandardAgileML
	// SchemeProteus is BidBrain + AgileML, the full system.
	SchemeProteus
)

// String implements fmt.Stringer.
func (k SchemeKind) String() string {
	switch k {
	case SchemeOnDemand:
		return "AllOnDemand"
	case SchemeStandardCheckpoint:
		return "Standard+Checkpoint"
	case SchemeStandardAgileML:
		return "Standard+AgileML"
	case SchemeProteus:
		return "Proteus"
	}
	return fmt.Sprintf("scheme(%d)", int(k))
}

// AllSchemes lists the paper's comparison set in presentation order.
func AllSchemes() []SchemeKind {
	return []SchemeKind{SchemeOnDemand, SchemeStandardCheckpoint, SchemeStandardAgileML, SchemeProteus}
}

// baselineSpec sizes a job that needs `hours` on 64 on-demand c4.2xlarge
// machines — the Fig. 8/9 baseline (Cluster-A).
func baselineSpec(hours float64) core.JobSpec {
	params := bidbrain.DefaultParams()
	return core.JobSpec{
		TargetWork:    params.Phi * 64 * 8 * hours,
		Params:        params,
		ReliableType:  "c4.xlarge",
		ReliableCount: 3,
		MaxSpotCores:  64 * 8 * 3 / 2,
		ChunkCores:    128,
	}
}

// buildScheme instantiates a scheme for the environment.
func buildScheme(kind SchemeKind, env *Env) core.Scheme {
	switch kind {
	case SchemeOnDemand:
		return core.OnDemandScheme{Type: "c4.2xlarge", Count: 64}
	case SchemeStandardCheckpoint:
		return core.StandardCheckpointScheme{
			Policy: checkpoint.DefaultPolicy(),
			MTTF:   4 * time.Hour,
		}
	case SchemeStandardAgileML:
		return core.StandardAgileMLScheme{}
	case SchemeProteus:
		return core.ProteusScheme{Brain: env.Brain}
	}
	panic(fmt.Sprintf("experiments: unknown scheme %d", int(kind)))
}

// SchemeAverage is one scheme's mean results across sampled job starts.
type SchemeAverage struct {
	Scheme        SchemeKind
	Cost          float64 // mean dollars per job
	CostPercentOD float64 // mean cost as % of the on-demand baseline
	Runtime       time.Duration
	Usage         market.Usage
	Evictions     float64 // mean evictions per job
	Samples       int
}

// runSchemeCell runs one scheme from one start offset in one zone, on
// an engine, market and brain of its own over the zone's shared traces
// and β tables, and merges what the cell observed into cfg.Observer.
func runSchemeCell(cfg MarketConfig, kind SchemeKind, zone *zoneEnv, spec core.JobSpec, offset time.Duration) (core.Result, error) {
	var observer *obs.Observer
	if cfg.Observer != nil {
		observer = obs.NewObserver(nil)
	}
	env, err := zone.newEnv(spec.Params, observer)
	if err != nil {
		return core.Result{}, err
	}
	env.Engine.RunUntil(offset)
	res, err := buildScheme(kind, env).Run(env.Engine, env.Market, spec)
	if err != nil {
		return core.Result{}, fmt.Errorf("experiments: %v at offset %v: %w", kind, offset, err)
	}
	if !res.Completed {
		return core.Result{}, fmt.Errorf("experiments: %v at offset %v did not complete", kind, offset)
	}
	cfg.Observer.Merge(observer)
	return res, nil
}

// RunSchemes runs every scheme from `samples` start offsets spread over
// the evaluation window in each availability zone and averages, mirroring
// §6.3's methodology ("1000 randomly chosen day/time starting points in
// each zone"). Each (scheme, zone, offset) triple gets a fresh market
// over the same price history, so schemes face identical conditions.
//
// The (scheme, zone, sample) grid is a plain loop, scheme-major in
// presentation order: a cell costs about ten microseconds once its zone
// is built, too little for a worker pool to be worth its code.
func RunSchemes(cfg MarketConfig, jobHours float64, samples int) ([]SchemeAverage, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("experiments: samples must be positive")
	}
	spec := baselineSpec(jobHours)
	horizon := time.Duration(cfg.EvalDays)*24*time.Hour - time.Duration(jobHours*3*float64(time.Hour))
	if horizon <= 0 {
		return nil, fmt.Errorf("experiments: evaluation window too short for %vh jobs", jobHours)
	}
	seeds := cfg.zoneSeeds()
	schemes := AllSchemes()

	// Build each zone's shared environment once, up front: every
	// (scheme, sample) cell of a zone reads the same traces and β
	// tables, so the grid no longer pays trace synthesis and β training
	// per cell. β training inside each build fans out over cfg.Parallel
	// workers.
	zones := make([]*zoneEnv, len(seeds))
	for zi, zoneSeed := range seeds {
		zoneCfg := cfg
		zoneCfg.Seed = zoneSeed
		z, err := buildZoneEnv(zoneCfg)
		if err != nil {
			return nil, err
		}
		zones[zi] = z
	}

	out := make([]SchemeAverage, 0, len(schemes))
	var odCost float64
	for _, kind := range schemes {
		avg := SchemeAverage{Scheme: kind, Samples: len(zones) * samples}
		for _, z := range zones {
			for i := 0; i < samples; i++ {
				offset := time.Duration(int64(horizon) / int64(samples) * int64(i))
				res, err := runSchemeCell(cfg, kind, z, spec, offset)
				if err != nil {
					return nil, err
				}
				avg.Cost += res.Cost
				avg.Runtime += res.Runtime
				avg.Usage.Add(res.Usage)
				avg.Evictions += float64(res.Evictions)
			}
		}
		n := float64(avg.Samples)
		avg.Cost /= n
		avg.Runtime = time.Duration(float64(avg.Runtime) / n)
		avg.Usage.OnDemandHours /= n
		avg.Usage.SpotHours /= n
		avg.Usage.FreeHours /= n
		avg.Evictions /= n
		if kind == SchemeOnDemand {
			odCost = avg.Cost
		}
		if odCost > 0 {
			avg.CostPercentOD = avg.Cost / odCost * 100
		}
		out = append(out, avg)
	}
	return out, nil
}
