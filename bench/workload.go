package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"selfstab/internal/graph"
	"selfstab/internal/service"
)

// opKind is one kind of client request.
type opKind int

const (
	opMutation opKind = iota
	opNode
	opStatus
	opMembership
	opSnapshot
	numKinds
)

var kindNames = [numKinds]string{"mutation", "node", "status", "membership", "snapshot"}

func (k opKind) String() string { return kindNames[k] }

// tenantSpec is one tenant a service workload creates.
type tenantSpec struct {
	protocol string
	n        int
}

// workload is one set of inputs. Service workloads drive a daemon with
// two closed-loop clients; converge-1m (convergeN > 0) drives the
// simulator alone.
type workload struct {
	name string
	why  string
	// tenants are created in this order; with own set, client c owns the
	// tenants whose index is c mod 2 and round-robins over them, otherwise
	// both clients pick tenants uniformly.
	tenants []tenantSpec
	own     bool
	// mix weighs the request kinds, indexed by opKind.
	mix [numKinds]int
	// reopen tops every tenant up to seq ≡ 16 (mod 32), kills the service
	// and times a service.Open of its data directory.
	reopen bool
	// twin is how many mutations the engine twin replays in a traced run,
	// over all tenants.
	twin int
	// convergeN is the node count of converge-1m's single graph.
	convergeN int
}

// clients is the closed-loop client count of every service workload:
// one per core of the 2-core machine the benchmark was sized on.
const clients = 2

// degree is the expected node degree of every generated unit-disk graph.
const degree = 10

func alternating(pairs, n int) []tenantSpec {
	var ts []tenantSpec
	for i := 0; i < pairs; i++ {
		ts = append(ts, tenantSpec{service.ProtocolSMM, n}, tenantSpec{service.ProtocolSMI, n})
	}
	return ts
}

// workloads returns the benchmark's workloads at full size. Each why is
// the reason the workload exists: which layers it loads and which it
// leaves idle.
func workloads() []workload {
	mutOnly := [numKinds]int{opMutation: 1}
	return []workload{
		{
			name:    "mut-small",
			why:     "8 tenants of 256 nodes, 100% mutations: an ack is HTTP + admission + commit window + one fsync, engine work is microseconds",
			tenants: alternating(4, 256),
			own:     true,
			mix:     mutOnly,
			twin:    2400,
		},
		{
			name: "mut-large",
			why:  "2 SMM tenants of 30k nodes, 100% mutations, then kill and reopen: per-mutation O(n+m) re-snapshot, legitimacy check and checkpoints dominate",
			// One protocol only: an SMM ack costs ~2.5x an SMI ack here, and
			// a closed loop would mix the two in a proportion set by their
			// speed, putting p50 and p99 on the boundary between them. At
			// 100k nodes the acks are memory-bound enough that run-to-run
			// spread on a shared 2-core VM reached 10-19%; at 30k the O(n+m)
			// work is still ~85% of an ack.
			tenants: []tenantSpec{{service.ProtocolSMM, 30_000}, {service.ProtocolSMM, 30_000}},
			own:     true,
			mix:     mutOnly,
			reopen:  true,
			twin:    200,
		},
		{
			name:    "read-mix",
			why:     "4 tenants of 10k nodes, 90% reads beside 10% mutations on shared tenants: view encoding and reads waiting behind the writer",
			tenants: alternating(2, 10_000),
			mix:     [numKinds]int{opMutation: 10, opNode: 36, opStatus: 27, opMembership: 18, opSnapshot: 9},
			twin:    1200,
		},
		{
			name:      "converge-1m",
			why:       "no daemon: SMM and SMI converge a 1M-node unit-disk graph from one random configuration with the K=1 engine, then with K=2",
			convergeN: 1_000_000,
			twin:      20,
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig is how one run measures a workload.
type runConfig struct {
	seed int64
	// window is how long the run measures; ops, when positive, instead
	// stops each client (or the converge loop) after that many operations.
	window time.Duration
	ops    int
	trace  bool
	// dir holds the run's scratch data directory and the trace file.
	dir string
}

// minSetups is how many times a run sets its workload up at the least;
// setup_s is the median.
const minSetups = 3

// minSetupTime is how long set-ups repeat at the least, so a workload
// whose set-up takes milliseconds still reports a steady median. Tenant
// creation is mostly directory fsyncs, whose latency drifts between
// regimes lasting about a second: at 1 s mut-small's setup_s spread 23%
// between runs, at 3 s 11%.
const minSetupTime = 3 * time.Second

// moreSetups reports whether another set-up should run after done of
// them took elapsed in all: until minSetups have run and minSetupTime has
// passed, except that set-ups lasting minSetupTime each are not repeated.
// converge-1m's takes 6–9 s, and three of them would take the four
// workloads past 90 s.
func (c runConfig) moreSetups(done int, elapsed time.Duration) bool {
	if done > 0 && elapsed >= time.Duration(done)*minSetupTime {
		return false
	}
	return done < minSetups || (c.ops == 0 && elapsed < minSetupTime)
}

// warm reports whether the i-th operation, started at t, is warm-up:
// checked but not timed. Warm-up is the first tenth of the run.
func (c runConfig) warm(i int, t, start time.Time) bool {
	if c.ops > 0 {
		return i < c.ops/10
	}
	return t.Sub(start) < c.window/10
}

// done reports whether an operation loop that has issued i operations
// and started at start should stop.
func (c runConfig) done(i int, start time.Time) bool {
	if c.ops > 0 {
		return i >= c.ops
	}
	return time.Since(start) >= c.window
}

// runWorkload sets up, loads, measures and checks one workload.
func runWorkload(w workload, cfg runConfig) *result {
	res := &result{workload: w.name}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		res.failf("scratch dir: %v", err)
		return res
	}
	dir, err := os.MkdirTemp(cfg.dir, "run-*")
	if err != nil {
		res.failf("scratch dir: %v", err)
		return res
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	if lat, err := fsyncProbe(dir); err != nil {
		res.failf("fsync probe: %v", err)
	} else {
		res.addPct("disk.fsync_ms.p50", lat, 50, "ms")
	}
	if w.convergeN > 0 {
		runConverge(w, cfg, tr, res)
	} else {
		runService(w, cfg, dir, tr, res)
	}
	if tr != nil {
		if op, ok := res.lookup("op_p50_ms"); ok {
			res.add("trace.op_p50_ms", op.value, "ms")
		}
		spans := tr.snapshot()
		summarizeSpans(res, spans)
		path := filepath.Join(cfg.dir, "trace-"+w.name+".json")
		if err := writeTrace(path, spans); err != nil {
			res.failf("write trace: %v", err)
		} else {
			fmt.Fprintf(os.Stderr, "%s: %d spans written to %s\n", w.name, len(spans), path)
		}
	}
	return res
}

// heapMB is the live heap after full collections. The second GC drops
// what sync.Pool victim caches (e.g. encoding/json buffers) still hold,
// which would otherwise make the reading jump by a buffer's size.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// newRNG derives an independent stream from the run seed.
func newRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// unitDisk places n uniform points and joins those within the radius
// that gives the expected degree. Node i sits at the i-th point, so IDs
// are independent of geometry — the paper's ad hoc radio model.
func unitDisk(n int, rng *rand.Rand) *graph.Graph {
	r := math.Sqrt(degree / (math.Pi * float64(n)))
	return graph.UnitDiskGrid(graph.RandomPoints(n, rng), r)
}

// flapper is one client's link-flap state on one tenant: the share of
// the tenant's initial edges it may flap, and the edge it removed and
// re-adds on its next flap.
type flapper struct {
	edges   [][2]int
	pending int // index into edges, or -1
}

func newFlapper(edges [][2]int, client, clients int) flapper {
	f := flapper{pending: -1}
	for i := client; i < len(edges); i += clients {
		f.edges = append(f.edges, edges[i])
	}
	return f
}

// nextMutation draws the next mutation of the stream: 2/3 link flaps
// (remove a uniformly drawn edge of the client's share, re-add it on the
// next flap), 1/3 corruption of 1–3 uniformly drawn nodes.
func nextMutation(rng *rand.Rand, f *flapper, n int) service.Mutation {
	if rng.Intn(3) < 2 && len(f.edges) > 0 {
		op := service.OpRemoveEdge
		if f.pending >= 0 {
			op = service.OpAddEdge
		} else {
			f.pending = rng.Intn(len(f.edges))
		}
		e := f.edges[f.pending]
		if op == service.OpAddEdge {
			f.pending = -1
		}
		u, v := e[0], e[1]
		return service.Mutation{Op: op, U: &u, V: &v}
	}
	nodes := make([]int, 1+rng.Intn(3))
	for i := range nodes {
		nodes[i] = rng.Intn(n)
	}
	return service.Mutation{Op: service.OpCorrupt, Nodes: nodes}
}

// fsyncProbe times 200 appends of 128 bytes, each followed by File.Sync,
// in dir: the disk latency under the journal, measured before any load.
func fsyncProbe(dir string) ([]float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, 128)
	lat := make([]float64, 0, 200)
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return nil, err
		}
		if err := f.Sync(); err != nil {
			return nil, err
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return lat, os.Remove(f.Name())
}

// commitWindow is the service's default group-commit window
// (Options.CommitInterval).
const commitWindow = 200 * time.Microsecond

// timerProbe times 200 waits on a timer set to the commit window: when
// the window really closes on this runtime. An idle Go runtime wakes
// timers at millisecond granularity, so a lone mutation pays this, not
// commitWindow.
func timerProbe() []float64 {
	lat := make([]float64, 0, 200)
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		t := time.NewTimer(commitWindow)
		<-t.C
		lat = append(lat, ms(time.Since(t0)))
	}
	return lat
}

// boundOf is the per-epoch round bound the service enforces: the paper's
// n+1 for SMM and 2n+2 for SMI.
func boundOf(protocol string, n int) int {
	if protocol == service.ProtocolSMM {
		return n + 1
	}
	return 2*n + 2
}
