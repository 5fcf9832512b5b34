package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Service. The zero value is not usable; call
// (Options).withDefaults via Open.
type Options struct {
	// DataDir roots the per-tenant journals and snapshots. Empty means
	// in-memory-only operation is impossible — the journal is the
	// durability story — so Open requires it.
	DataDir string
	// QueueDepth bounds each tenant's command queue; a full queue is
	// surfaced as 503 + Retry-After. Default 64.
	QueueDepth int
	// RatePerSec and Burst shape the per-tenant token bucket; an empty
	// bucket is surfaced as 429 + Retry-After. Default 200/s, burst 100.
	RatePerSec float64
	Burst      int
	// SnapshotEvery checkpoints a tenant after every k-th mutation
	// (plus once on graceful shutdown). Default 32; negative disables
	// periodic checkpoints.
	SnapshotEvery int
	// Shards is each tenant engine's shard count; values below 1 mean
	// one shard, which never spawns worker goroutines.
	Shards int
	// MaxTenants caps the registry; creation past the cap is 429.
	// Default 256.
	MaxTenants int
	// EnableChaos admits the chaos_panic operation (test clusters only).
	EnableChaos bool
	// SegmentBytes is the journal rotation threshold: once the active
	// segment passes it (checked at commit boundaries), the journal
	// rotates to a fresh numbered segment, and checkpoints retire every
	// segment wholly covered by the snapshot. Default 4 MiB.
	SegmentBytes int64
	// Now is the clock seam for rate limiting; defaults to time.Now.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.RatePerSec <= 0 {
		o.RatePerSec = 200
	}
	if o.Burst <= 0 {
		o.Burst = 100
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 32
	}
	if o.MaxTenants <= 0 {
		o.MaxTenants = 256
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Vars is the operational counter block served by GET /varz.
type Vars struct {
	Tenants     int   `json:"tenants"`
	Quarantined int   `json:"quarantined"`
	Requests    int64 `json:"requests"`
	RateLimited int64 `json:"rate_limited"`
	Overloaded  int64 `json:"overloaded"`
	Accepted    int64 `json:"accepted_async"`
	Mutations   int64 `json:"mutations"`
	Panics      int64 `json:"panics"`
	// Fsyncs totals journal fsyncs across tenants; Fsyncs/Mutations is
	// the group-commit amortization ratio load reports track.
	Fsyncs int64 `json:"fsyncs"`
	// Journal holds the per-tenant journal counters, keyed by tenant id.
	Journal map[string]TenantJournalVars `json:"journal,omitempty"`
}

// TenantJournalVars is one tenant's journal observability block.
type TenantJournalVars struct {
	// Appends counts journal entries written (buffered); Fsyncs counts
	// physical syncs; Batches counts group commits that contained at
	// least one entry.
	Appends int64 `json:"appends"`
	Fsyncs  int64 `json:"fsyncs"`
	Batches int64 `json:"batches"`
	// Segments is the live segment-file count; ReplaySuffixBytes is the
	// total bytes recovery would read (all live segments).
	Segments          int   `json:"segments"`
	ReplaySuffixBytes int64 `json:"replay_suffix_bytes"`
	// BatchSizes histograms realized group-commit sizes into buckets
	// 1, 2, ≤4, ≤8, ≤16, ≤32, ≤64, >64.
	BatchSizes [8]int64 `json:"batch_size_hist"`
}

// Service hosts many tenant graphs, each behind its own single-writer
// event loop, with shared admission control and a common kill switch.
type Service struct {
	opts Options
	// killCtx is canceled by Kill (and by Close after its drain
	// deadline): every tenant loop and in-flight convergence observes it
	// between rounds.
	killCtx context.Context
	kill    context.CancelFunc
	wg      sync.WaitGroup

	mu sync.RWMutex
	// guarded by mu
	tenants map[string]*tenant
	// guarded by mu
	closing bool

	requests    atomic.Int64
	rateLimited atomic.Int64
	overloaded  atomic.Int64
	accepted    atomic.Int64
	mutations   atomic.Int64
	panics      atomic.Int64
}

// Open starts a service over dataDir, recovering every tenant directory
// found there: each is replayed from its latest snapshot plus journal
// suffix to exactly its last acknowledged state.
//
// Open is the process-lifetime context root: killCtx outlives every
// request and is cancelled only by Kill/Close.
//
//selfstab:ctx-root
func Open(opts Options) (*Service, error) {
	opts = opts.withDefaults()
	if opts.DataDir == "" {
		return nil, errors.New("service: DataDir is required")
	}
	if err := os.MkdirAll(filepath.Join(opts.DataDir, "tenants"), 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		opts:    opts,
		killCtx: ctx,
		kill:    cancel,
		tenants: make(map[string]*tenant),
	}
	des, err := os.ReadDir(filepath.Join(opts.DataDir, "tenants"))
	if err != nil {
		cancel()
		return nil, err
	}
	// Sorted recovery order: deterministic startup regardless of
	// directory enumeration order. A crash mid-create or mid-delete
	// leaves a directory under a staging name, never a tenant's, and
	// nothing in it was acknowledged: remove it.
	names := make([]string, 0, len(des))
	for _, de := range des {
		switch {
		case !de.IsDir():
		case isLeftover(de.Name()):
			if err := os.RemoveAll(filepath.Join(opts.DataDir, "tenants", de.Name())); err != nil {
				cancel()
				return nil, err
			}
		default:
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		dir := tenantDir(opts.DataDir, name)
		meta, err := readMeta(dir)
		if err != nil {
			cancel()
			s.shutdownAll()
			return nil, fmt.Errorf("recover tenant %s: %w", name, err)
		}
		t, err := s.startTenant(dir, meta)
		if err != nil {
			cancel()
			s.shutdownAll()
			return nil, fmt.Errorf("recover tenant %s: %w", name, err)
		}
		s.register(t)
	}
	return s, nil
}

func (s *Service) startTenant(dir string, meta tenantMeta) (*tenant, error) {
	t, err := newTenant(s.killCtx, dir, meta, tenantOptions{
		queueDepth: s.opts.QueueDepth,
		snapEvery:  int64(s.opts.SnapshotEvery),
		shards:     s.opts.Shards,
		ratePerSec: s.opts.RatePerSec,
		burst:      s.opts.Burst,
		segBytes:   s.opts.SegmentBytes,
		now:        s.opts.Now,
	})
	if err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		<-t.dead
	}()
	return t, nil
}

func (s *Service) register(t *tenant) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tenants[t.id] = t
}

// CreateTenant provisions a new tenant directory holding its immutable
// meta, runs the deterministic init epoch, and starts its loop.
func (s *Service) CreateTenant(meta tenantMeta) (*tenant, error) {
	if err := validateMeta(meta); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil, errClosed
	}
	if _, dup := s.tenants[meta.ID]; dup {
		s.mu.Unlock()
		return nil, errTenantExists
	}
	if len(s.tenants) >= s.opts.MaxTenants {
		s.mu.Unlock()
		return nil, errTenantCap
	}
	// Reserve the slot before the (slow) init epoch so a concurrent
	// create of the same ID conflicts instead of racing.
	s.tenants[meta.ID] = nil
	s.mu.Unlock()

	t, err := func() (*tenant, error) {
		if err := createTenantDir(s.opts.DataDir, meta); err != nil {
			return nil, err
		}
		t, err := s.startTenant(tenantDir(s.opts.DataDir, meta.ID), meta)
		if err != nil {
			removeTenantDir(s.opts.DataDir, meta.ID)
		}
		return t, err
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		delete(s.tenants, meta.ID)
		return nil, err
	}
	s.tenants[meta.ID] = t
	return t, nil
}

var (
	errTenantExists   = errors.New("tenant already exists")
	errTenantCap      = errors.New("tenant capacity reached")
	errTenantNotFound = errors.New("tenant not found")
)

func validTenantID(id string) bool {
	if len(id) > 64 {
		return false
	}
	for _, r := range id {
		ok := r == '-' || r == '_' || (r >= '0' && r <= '9') ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !ok {
			return false
		}
	}
	return true
}

// Tenant looks up a live tenant. A reserved-but-initializing slot reads
// as not found.
func (s *Service) Tenant(id string) (*tenant, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[id]
	if !ok || t == nil {
		return nil, errTenantNotFound
	}
	return t, nil
}

// TenantIDs returns the sorted live tenant IDs (sorted so map iteration
// order never escapes to a response).
func (s *Service) TenantIDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]string, 0, len(s.tenants))
	for id, t := range s.tenants {
		if t != nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// DeleteTenant drains the tenant's loop and removes its directory, out
// of Open's sight before anything in it goes. Once the tenant is
// unregistered the delete always finishes: the loop exits after close
// (Kill ends it too), and a directory left behind would answer a
// re-create of the id with 400 and come back at the next Open.
func (s *Service) DeleteTenant(id string) error {
	s.mu.Lock()
	t, ok := s.tenants[id]
	if !ok || t == nil {
		s.mu.Unlock()
		return errTenantNotFound
	}
	delete(s.tenants, id)
	s.mu.Unlock()
	t.close()
	<-t.dead
	return removeTenantDir(s.opts.DataDir, id)
}

// Close shuts down gracefully: no new tenants, every loop drains its
// queue and flushes a final checkpoint. If ctx expires first, Close
// falls back to Kill so shutdown always terminates.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	for _, t := range s.liveTenants() {
		t.close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.kill() // release the kill context's resources
		return nil
	case <-ctx.Done():
		s.kill()
		<-done
		return ctx.Err()
	}
}

// Kill is the crash path: cancel every loop and in-flight convergence
// immediately, flush nothing. State on disk is whatever the journal
// says — which is the point; the recovery tier reopens from it.
func (s *Service) Kill() {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	s.kill()
	s.wg.Wait()
}

func (s *Service) shutdownAll() {
	for _, t := range s.liveTenants() {
		t.close()
	}
	s.wg.Wait()
}

// liveTenants snapshots the registered tenants in deterministic id
// order (placeholders from in-flight creates are skipped).
func (s *Service) liveTenants() []*tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		if t != nil {
			ts = append(ts, t)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].id < ts[j].id })
	return ts
}

// Varz snapshots the operational counters. Per-tenant journal blocks
// are read in sorted id order so map iteration never shapes a response.
func (s *Service) Varz() Vars {
	ids := s.TenantIDs()
	quarantined := 0
	var fsyncs int64
	journal := make(map[string]TenantJournalVars, len(ids))
	for _, id := range ids {
		t, err := s.Tenant(id)
		if err != nil {
			continue
		}
		if t.status().Quarantined != "" {
			quarantined++
		}
		jv := t.journalVars()
		fsyncs += jv.Fsyncs
		journal[id] = jv
	}
	return Vars{
		Tenants:     len(ids),
		Quarantined: quarantined,
		Requests:    s.requests.Load(),
		RateLimited: s.rateLimited.Load(),
		Overloaded:  s.overloaded.Load(),
		Accepted:    s.accepted.Load(),
		Mutations:   s.mutations.Load(),
		Panics:      s.panics.Load(),
		Fsyncs:      fsyncs,
		Journal:     journal,
	}
}
