package core

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streammap/internal/artifact"
	"streammap/internal/driver"
	"streammap/internal/faultinject"
	"streammap/internal/fleet"
	"streammap/internal/obs"
	"streammap/internal/pee"
	"streammap/internal/sdf"
)

// ServiceConfig tunes a compile service.
type ServiceConfig struct {
	// MaxEntries bounds the in-memory table (default 256).
	MaxEntries int
	// MaxConcurrent bounds pipeline runs (compiles, remaps) in progress at
	// once (default GOMAXPROCS). Hits and joiners never take a slot.
	MaxConcurrent int
	// MaxQueue bounds the runs waiting for a slot; one more fails with
	// ErrBusy. Zero means unbounded: library callers queue, the network
	// server sheds load.
	MaxQueue int
	// CacheDir, when set, enables the private disk tier: a
	// content-addressed directory of encoded artifacts (fleet.DirStore).
	// Table misses consult it before compiling, so a restarted service
	// warm-starts from disk; successful compilations are written back.
	CacheDir string
	// Shared, when set, enables the fleet-wide tier (typically a
	// fleet.DirStore on a shared filesystem), consulted after the disk
	// tier and written after every successful compilation. A freshly
	// started node warm-starts from it; hits are written through into
	// CacheDir.
	Shared ArtifactStore
	// Faults, when non-nil, threads deterministic fault injection through
	// the disk tier's writes (torn writes, silent corruption, ENOSPC).
	// Chaos-tier testing only; nil in production, where every seam is a
	// no-op.
	Faults *faultinject.Injector
	// Metrics is the registry the service's cache, admission and pipeline
	// counters live on — internal/server passes its own so one /metrics
	// exposition covers the whole node. A nil one is replaced by a private
	// registry: Stats reads the same counters either way.
	Metrics *obs.Registry
	// Logger, when non-nil, receives the service's structured log records
	// (quarantine events, persistent-tier write failures). Nil discards.
	Logger *slog.Logger
}

func (c ServiceConfig) withDefaults() ServiceConfig {
	if c.MaxEntries <= 0 {
		c.MaxEntries = 256
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// ServiceStats is the library's typed snapshot of a service's counters,
// read from the registry series a scrape of the node would show.
type ServiceStats struct {
	Hits        int64 // requests answered from the in-memory table (incl. join-in-flight)
	Misses      int64 // requests that ran a full compilation
	Evictions   int64 // table entries dropped by the MaxEntries bound
	DiskHits    int64 // requests answered from the disk tier without compiling
	DiskWrites  int64 // artifacts persisted to the disk tier
	DiskErrors  int64 // failed disk-tier writes (the tier is best-effort)
	StoreHits   int64 // requests answered from the shared store without compiling
	StoreWrites int64 // artifacts persisted to the shared store
	StoreErrors int64 // failed shared-store writes (the tier is best-effort)
	// CorruptQuarantined counts persistent-tier entries that failed
	// validation and were moved aside to *.corrupt instead of being
	// served or silently overwritten.
	CorruptQuarantined int64
	Entries            int // entries currently in the in-memory table

	// Engine aggregates the estimation-engine memo counters over every
	// compilation this service actually ran (hits don't contribute — no
	// pipeline pass ran for them).
	Engine EngineStats

	Coalesced int64 // requests that joined another request's in-flight run (also in Hits when it was a compile)
	Encodes   int64 // artifact export+encode runs
	InFlight  int64 // runs holding a slot
	Queued    int64 // runs waiting for a slot
}

// EngineStats is the wire form of the estimation engine's memo counters —
// the shape `streammap -stats` emits.
type EngineStats struct {
	Queries int64   `json:"queries"`
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hitRate"`
}

// EngineStatsOf converts an engine snapshot to its wire form.
func EngineStatsOf(s pee.Stats) EngineStats {
	return EngineStats{
		Queries: s.Queries,
		Hits:    s.Hits(),
		Misses:  s.Misses,
		HitRate: s.HitRate(),
	}
}

var (
	// ErrBusy reports that MaxQueue runs were already waiting for a slot.
	ErrBusy = errors.New("core: compile queue full")
	// ErrClosed reports a request made after Close.
	ErrClosed = errors.New("core: service closed")
)

// entry is one slot of the table: in flight until done closes, then either
// failed (err) or the encoded artifact, with the live *driver.Compiled beside it
// once a library caller has needed one.
type entry struct {
	key  string
	done chan struct{}
	data []byte
	err  error

	once sync.Once // guards rehydrating c from data
	c    *driver.Compiled
	cerr error
}

// tier is one persistent store with its instruments.
type tier struct {
	name  string // "disk" or "store": the metrics label
	span  string
	store ArtifactStore
	probe *obs.Histogram // probe latency, hit or miss

	hits, writes, errors *obs.Counter
}

// Service answers compile requests from one table keyed by KeyHash. An
// entry is a run in flight (concurrent duplicates join it) or a finished
// compilation's encoded artifact; a miss walks the persistent tiers — the
// private disk directory (ServiceConfig.CacheDir), then the fleet-wide
// shared store (ServiceConfig.Shared) — and only then takes an admission
// slot and runs the pipeline. The encoding produced by a fresh compile is
// the one every later hit, every store and every peer is handed. It is
// safe for concurrent use.
//
// Compile returns the same *driver.Compiled to every caller with an equal key;
// treat compiled results as immutable (copy the Plan before mutating it, as
// the experiments do).
type Service struct {
	cfg ServiceConfig
	sem chan struct{}

	disk, shared tier
	tiers        []*tier // the configured ones, in probe order
	private      int     // tiers[:private] are this node's own; peer bytes are written there

	// compileFn runs one compilation; driver.Compile in production, a seam
	// for tests that need a compile to block or fail on cue.
	compileFn func(ctx context.Context, g *sdf.Graph, opts driver.Options) (*driver.Compiled, error)

	mu      sync.Mutex
	lru     *list.List // of *entry, most recent at front
	table   map[string]*list.Element
	closed  bool
	pending int           // detached runs and persists not yet finished
	idle    chan struct{} // closed when pending drops to zero; nil unless a Flush waits

	// queued is what admission branches on, and inFlight falls as well as
	// rises; every other count is a registry series and nothing else (see
	// instrument).
	queued, inFlight atomic.Int64

	log *slog.Logger

	hits, misses, evictions, coalesced, encodes *obs.Counter
	corruptQuarantined                          *obs.Counter
	engQueries, engMisses                       *obs.Counter

	admissionWait *obs.Histogram    // time runs spent waiting for a slot, rejections included
	compileDur    *obs.Histogram    // full pipeline wall-clock, fresh compiles only
	stageDur      *obs.HistogramVec // per-stage wall-clock by stage name
}

// NewService returns a compile service.
func NewService(cfg ServiceConfig) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:       cfg,
		sem:       make(chan struct{}, cfg.MaxConcurrent),
		compileFn: driver.Compile,
		lru:       list.New(),
		table:     map[string]*list.Element{},
		log:       cfg.Logger,
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	s.disk.name, s.disk.span = "disk", "cache.disk"
	s.shared.name, s.shared.span = "store", "cache.store"
	if cfg.CacheDir != "" {
		s.disk.store = fleet.NewDirStore(cfg.CacheDir).WithFaults(cfg.Faults)
		s.tiers = append(s.tiers, &s.disk)
		s.private = 1
	}
	if cfg.Shared != nil {
		s.shared.store = cfg.Shared
		s.tiers = append(s.tiers, &s.shared)
	}
	s.instrument(cfg.Metrics)
	return s
}

// instrument registers the service's counters, gauges and latency
// histograms on reg. Each count is kept once, in its series: the request
// path increments it, a scrape and Stats read it.
func (s *Service) instrument(reg *obs.Registry) {
	s.admissionWait = reg.Histogram("streammap_admission_wait_seconds",
		"Time runs spent waiting for a compile slot, rejections included.", nil)
	s.compileDur = reg.Histogram("streammap_compile_seconds",
		"Full pipeline wall-clock for fresh compiles (cache hits excluded).", nil)
	s.stageDur = reg.HistogramVec("streammap_stage_duration_seconds",
		"Pipeline stage wall-clock by stage name.", "stage", nil)

	s.hits = reg.Counter("streammap_cache_hits_total", "Cache hits by tier.", obs.Label{Key: "tier", Value: "memory"})
	for _, t := range []*tier{&s.disk, &s.shared} {
		label := obs.Label{Key: "tier", Value: t.name}
		t.probe = reg.Histogram("streammap_cache_probe_seconds", "Cache tier probe latency by tier, hit or miss.", nil, label)
		t.hits = reg.Counter("streammap_cache_hits_total", "Cache hits by tier.", label)
		t.writes = reg.Counter("streammap_cache_writes_total", "Artifacts persisted by tier.", label)
		t.errors = reg.Counter("streammap_cache_errors_total", "Failed persistent-tier writes by tier.", label)
	}
	s.misses = reg.Counter("streammap_cache_misses_total", "Requests that ran a full compilation.")
	s.evictions = reg.Counter("streammap_cache_evictions_total", "In-memory table entries evicted.")
	s.corruptQuarantined = reg.Counter("streammap_corrupt_quarantined_total", "Persistent-tier entries quarantined after failing validation.")
	s.coalesced = reg.Counter("streammap_coalesced_total", "Requests that joined another request's in-flight run.")
	s.encodes = reg.Counter("streammap_artifact_encodes_total", "Artifact export+encode runs (hits serve the stored bytes).")
	s.engQueries = reg.Counter("streammap_engine_queries_total", "Estimation-engine memo queries across fresh compiles.")
	s.engMisses = reg.Counter("streammap_engine_misses_total", "Estimation-engine memo misses across fresh compiles.")
	reg.GaugeFunc("streammap_in_flight", "Runs holding a compile slot.", func() float64 { return float64(s.inFlight.Load()) })
	reg.GaugeFunc("streammap_queued", "Runs waiting for a compile slot.", func() float64 { return float64(s.queued.Load()) })
	reg.GaugeFunc("streammap_cache_entries", "Entries in the in-memory table.", func() float64 { return float64(s.entries()) })
}

// entries is the number of entries in the in-memory table.
func (s *Service) entries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() ServiceStats {
	return ServiceStats{
		Hits:               s.hits.Value(),
		Misses:             s.misses.Value(),
		Evictions:          s.evictions.Value(),
		DiskHits:           s.disk.hits.Value(),
		DiskWrites:         s.disk.writes.Value(),
		DiskErrors:         s.disk.errors.Value(),
		StoreHits:          s.shared.hits.Value(),
		StoreWrites:        s.shared.writes.Value(),
		StoreErrors:        s.shared.errors.Value(),
		CorruptQuarantined: s.corruptQuarantined.Value(),
		Entries:            s.entries(),
		Engine: EngineStatsOf(pee.Stats{
			Queries: s.engQueries.Value(),
			Misses:  s.engMisses.Value(),
		}),
		Coalesced: s.coalesced.Value(),
		Encodes:   s.encodes.Value(),
		InFlight:  s.inFlight.Load(),
		Queued:    s.queued.Load(),
	}
}

// Compile returns the compilation of g under opts. A repeat is answered
// from the table, a concurrent duplicate joins the run in flight, a
// restarted service finds the artifact in its persistent tiers; failed
// compilations are not cached. A result that did not come from a pipeline
// run in this process — a persistent-tier hit, bytes a server request or a
// peer left in the table — is rebuilt from its encoding on first use; its
// Stages are empty, since no pass ran here and the encoding carries none.
func (s *Service) Compile(ctx context.Context, g *sdf.Graph, opts driver.Options) (*driver.Compiled, error) {
	hash, err := HashOf(g, opts)
	if err != nil {
		return nil, err
	}
	e, err := s.resolve(ctx, hash, g, nil, opts)
	if err != nil {
		return nil, err
	}
	e.once.Do(func() {
		if e.c == nil {
			e.c, e.cerr = s.rehydrate(e.data, g, opts)
		}
	})
	if e.cerr != nil {
		s.drop(e)
	}
	return e.c, e.cerr
}

// GraphSource builds the graph a key names. A known key never needs one, so
// a caller that holds only a wire form (a server with a request's spec)
// hands the service the means to build it and pays for the build only when
// the pipeline will run. Its error is the caller's own and is returned
// unchanged to everyone waiting on the run.
type GraphSource func() (*sdf.Graph, error)

// Encoded is Compile for callers that want the bytes: it returns the
// encoded artifact of source's graph under opts, identical for every
// caller of hash and for every tier it is later read from. hash is the
// HashOf (or HashOfSpec) of that graph and opts, which the caller has
// already derived to route the request.
//
// source is called at most once, by the run this call starts when the table
// and every persistent tier have missed; a call that finds the key, or
// joins a run, drops it. The run is detached, so it may call source after
// a call whose ctx ended has returned — but never after a return with ctx
// still live, which means the run is over.
func (s *Service) Encoded(ctx context.Context, hash string, source GraphSource, opts driver.Options) ([]byte, error) {
	e, err := s.resolve(ctx, hash, nil, source, opts)
	if err != nil {
		return nil, err
	}
	return e.data, nil
}

// resolve returns hash's finished entry. The graph comes one of two ways: g
// in hand marks a library caller, who will want the *driver.Compiled — a run it
// leads keeps the pipeline's own result and only accepts stored bytes it
// can rebuild one from; otherwise source builds it if the run must compile.
func (s *Service) resolve(ctx context.Context, hash string, g *sdf.Graph, source GraphSource, opts driver.Options) (*entry, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	e, hit, err := s.lookup(ctx, hash, true)
	if err != nil {
		return nil, err
	}
	if !hit {
		go s.run(ctx, e, true, func(ctx context.Context) ([]byte, *driver.Compiled, int, error) {
			return s.fill(ctx, hash, g, source, opts)
		})
	}
	return s.await(ctx, e, hit)
}

// Flight runs fn once for all concurrent callers of key, under the same
// admission bound as a compile, and hands every caller its result. Nothing
// is retained once it finishes — this is the coalescing half of the table
// without the cache, for work (remaps) whose input is not a cache key. key
// must not be a KeyHash.
func (s *Service) Flight(ctx context.Context, key string, fn func(ctx context.Context) ([]byte, error)) ([]byte, error) {
	e, hit, err := s.lookup(ctx, key, false)
	if err != nil {
		return nil, err
	}
	if !hit {
		go s.run(ctx, e, false, func(ctx context.Context) ([]byte, *driver.Compiled, int, error) {
			release, err := s.admit(ctx)
			if err != nil {
				return nil, nil, 0, err
			}
			defer release()
			data, err := fn(ctx)
			return data, nil, 0, err
		})
	}
	if e, err = s.await(ctx, e, hit); err != nil {
		return nil, err
	}
	return e.data, nil
}

// lookup returns key's table entry. When there is none (hit false) it
// creates one, and the caller leads: it must start the entry's run. cached
// says key names a compilation, so finding its entry is a cache hit rather
// than only an overlap with another caller.
func (s *Service) lookup(ctx context.Context, key string, cached bool) (e *entry, hit bool, err error) {
	var span *obs.Span
	if cached {
		_, span = obs.StartSpan(ctx, "cache.memory")
		defer span.End()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	if el, ok := s.table[key]; ok {
		s.lru.MoveToFront(el)
		span.SetNote("hit")
		if cached {
			s.hits.Inc()
		}
		return el.Value.(*entry), true, nil
	}
	span.SetNote("miss")
	e = &entry{key: key, done: make(chan struct{})}
	s.table[key] = s.lru.PushFront(e)
	s.evictLocked()
	s.pending++
	return e, false, nil
}

// await blocks until e is final or ctx ends. A caller that has to wait on
// a run it found already going is coalesced onto it.
func (s *Service) await(ctx context.Context, e *entry, hit bool) (*entry, error) {
	select {
	case <-e.done:
		return e, e.err
	default:
	}
	if hit {
		s.coalesced.Inc()
		_, span := obs.StartSpan(ctx, "coalesce.join")
		defer span.End()
	}
	select {
	case <-e.done:
		return e, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// evictLocked enforces MaxEntries; the caller holds s.mu. In-flight entries
// can be evicted — their waiters still complete, the result just is not
// retained.
func (s *Service) evictLocked() {
	for s.lru.Len() > s.cfg.MaxEntries {
		s.removeLocked(s.lru.Back().Value.(*entry))
		s.evictions.Inc()
	}
}

// run is the detached body of one entry's flight. It is detached from the
// requesting context because other callers may have joined the entry, and
// one caller's cancellation must not poison theirs: every caller returns
// promptly on its own ctx, and an abandoned run still finishes and fills
// the table. WithoutCancel keeps the context's values — the leader's trace
// — so tier probes and pipeline stages land in the right trace (the trace
// drops them if the request already finished).
//
// work returns the encoded result, the live compilation if the entry should
// keep it, and how many leading tiers to write the bytes to. Persisting
// happens after the waiters are released: the tiers are best-effort and
// never sit on the response path.
func (s *Service) run(ctx context.Context, e *entry, retain bool, work func(context.Context) ([]byte, *driver.Compiled, int, error)) {
	defer s.finished()
	var upto int
	func() {
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("core: run for %s panicked: %v", e.key, r)
			}
		}()
		e.data, e.c, upto, e.err = work(context.WithoutCancel(ctx))
	}()
	if e.err != nil || !retain {
		s.drop(e)
	}
	close(e.done)
	if e.err == nil {
		s.persist(e.key, e.data, s.tiers[:upto])
	}
}

// fill produces hash's bytes for a run: the first persistent tier holding
// them, else a compilation under an admission slot. A library caller's g
// vets what the tiers return; without one the graph is built from source,
// and only for the compilation.
func (s *Service) fill(ctx context.Context, hash string, g *sdf.Graph, source GraphSource, opts driver.Options) ([]byte, *driver.Compiled, int, error) {
	var c *driver.Compiled
	library := g != nil
	accept := func([]byte) error { return nil }
	if library {
		accept = func(data []byte) (err error) {
			c, err = s.rehydrate(data, g, opts)
			return err
		}
	}
	if data, i := s.probe(ctx, hash, accept); data != nil {
		return data, c, i, nil // write through into the tiers in front of the one that hit
	}
	if !library {
		_, span := obs.StartSpan(ctx, "graph.import")
		var err error
		g, err = source()
		span.End()
		if err != nil {
			return nil, nil, 0, err
		}
	}
	release, err := s.admit(ctx)
	if err != nil {
		return nil, nil, 0, err
	}
	defer release()

	s.misses.Inc()
	start := time.Now()
	cctx, span := obs.StartSpan(ctx, "compile")
	c, err = s.compileFn(cctx, g, opts)
	span.End()
	if err != nil {
		return nil, nil, 0, err
	}
	s.compileDur.ObserveSince(start)
	for _, st := range c.Stages {
		s.stageDur.With(st.Name).Observe(st.Duration.Seconds())
	}
	// Only fresh compiles fold their estimation-engine counters into the
	// service-wide aggregate: a hit re-serves a result already counted.
	s.engQueries.Add(c.Estimates.Queries)
	s.engMisses.Add(c.Estimates.Misses)
	data, err := s.Encode(ctx, c)
	if err != nil {
		return nil, nil, 0, err
	}
	if !library {
		c = nil // a server never asks for it; the bytes are the entry
	}
	return data, c, len(s.tiers), nil
}

// Encode exports and encodes one compilation, counted in
// ServiceStats.Encodes.
func (s *Service) Encode(ctx context.Context, c *driver.Compiled) ([]byte, error) {
	_, span := obs.StartSpan(ctx, "artifact.encode")
	defer span.End()
	s.encodes.Inc()
	a, err := c.Artifact()
	if err != nil {
		return nil, err
	}
	return a.Encode()
}

// admit takes a pipeline slot, queueing behind the MaxConcurrent running
// ones; with MaxQueue set, one waiter too many is refused with ErrBusy. The
// returned release must be called exactly once.
func (s *Service) admit(ctx context.Context) (release func(), err error) {
	start := time.Now()
	_, span := obs.StartSpan(ctx, "admission.wait")
	defer func() {
		span.End()
		s.admissionWait.ObserveSince(start)
	}()
	// The queued gauge counts waiters including those about to take a free
	// slot, so the bound is approximate by design: admission stays one
	// atomic, not a lock around the semaphore.
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) && s.cfg.MaxQueue > 0 {
		s.queued.Add(-1)
		span.SetNote("not admitted")
		return nil, ErrBusy
	}
	s.sem <- struct{}{}
	s.queued.Add(-1)
	s.inFlight.Add(1)
	return func() {
		s.inFlight.Add(-1)
		<-s.sem
	}, nil
}

// rehydrate decodes an encoded artifact and rebuilds a Compiled from it —
// partitions rebuilt from their member lists, the PDG built over them, plan
// reassembled — without running any pipeline stage. FromArtifact rejects
// bytes compiled from another graph or under other options.
func (s *Service) rehydrate(data []byte, g *sdf.Graph, opts driver.Options) (*driver.Compiled, error) {
	a, err := artifact.Decode(data)
	if err != nil {
		return nil, err
	}
	return driver.FromArtifact(g, a, opts)
}

// drop removes a failed or unretained entry so later requests run afresh.
func (s *Service) drop(e *entry) {
	s.mu.Lock()
	s.removeLocked(e)
	s.mu.Unlock()
}

// removeLocked unlinks e if it is still the entry under its key; the
// caller holds s.mu.
func (s *Service) removeLocked(e *entry) {
	if el, ok := s.table[e.key]; ok && el.Value == e {
		s.lru.Remove(el)
		delete(s.table, e.key)
	}
}

// finished retires one unit of background work.
func (s *Service) finished() {
	s.mu.Lock()
	s.pending--
	if s.pending == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.mu.Unlock()
}

// Flush waits until every detached run and every pending persistent-tier
// write has finished, or ctx ends. Work started while it waits is waited
// for too.
func (s *Service) Flush(ctx context.Context) error {
	s.mu.Lock()
	if s.pending == 0 {
		s.mu.Unlock()
		return nil
	}
	if s.idle == nil {
		s.idle = make(chan struct{})
	}
	idle := s.idle
	s.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("core: flush: %d background tasks unfinished: %w", s.Pending(), ctx.Err())
	}
}

// Pending reports the detached runs and persists not yet finished.
func (s *Service) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// Close refuses new requests (ErrClosed) and flushes. It is the shutdown
// barrier: after a nil return nothing the service started is still running
// and every artifact it answered with is in the persistent tiers.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.Flush(ctx)
}
