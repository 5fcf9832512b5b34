package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"selfstab/internal/graph"
	"selfstab/internal/service"
	"selfstab/internal/stats"
	"selfstab/internal/verify"
)

// tenantRef is the benchmark's view of one tenant: its identity and the
// topology it was created with.
type tenantRef struct {
	id       string
	protocol string
	n        int
	edges    [][2]int
}

// daemon is an in-process service on a loopback listener.
type daemon struct {
	svc  *service.Service
	srv  *http.Server
	base string
	done chan struct{}
}

// openDaemon opens the service over dir with capacity-measuring options:
// defaults everywhere except a rate limit no client can reach.
func openDaemon(dir string, tr *tracer) (*daemon, time.Duration, error) {
	sp := tr.begin("service.open", span{})
	t0 := time.Now()
	svc, err := service.Open(service.Options{DataDir: dir, RatePerSec: 1e9, Burst: 1e9})
	took := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("open service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Kill()
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	h := svc.Handler()
	if tr != nil {
		h = tr.wrap(h)
	}
	d := &daemon{svc: svc, srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln) // returns http.ErrServerClosed once kill closes it
	}()
	return d, took, nil
}

// kill closes the listener and its connections, then crashes the service
// the way kill -9 would: nothing is flushed beyond what was acked.
func (d *daemon) kill(tr *tracer) {
	d.srv.Close()
	<-d.done
	sp := tr.begin("service.kill", span{})
	d.svc.Kill()
	tr.end(sp)
}

func (d *daemon) varz(tr *tracer) service.Vars {
	sp := tr.begin("service.varz", span{})
	v := d.svc.Varz()
	tr.end(sp)
	return v
}

// ack is one acknowledged mutation, replayed later by the engine twin.
type ack struct {
	seq int64
	m   service.Mutation
}

// opRec is one timed client request.
type opRec struct {
	kind       opKind
	tenant     int
	start, end time.Time
	seq        int64
	bytes      int
	warm, ok   bool
	span       uint64
}

// recLog holds a client's op records in fixed-size chunks, so their
// memory is exactly the chunks' capacity (see recordMB).
type recLog [][]opRec

func (l *recLog) add(r opRec) {
	if n := len(*l); n == 0 || len((*l)[n-1]) == cap((*l)[n-1]) {
		*l = append(*l, make([]opRec, 0, 1024))
	}
	last := &(*l)[len(*l)-1]
	*last = append(*last, r)
}

// recordMB is the heap the clients' op records occupy, which heap_mb
// leaves out: it follows the op count, not the service.
func recordMB(cs []*client) float64 {
	var b uintptr
	for _, c := range cs {
		for _, chunk := range c.recs {
			b += uintptr(cap(chunk)) * unsafe.Sizeof(opRec{})
		}
	}
	return float64(b) / (1 << 20)
}

// client is one closed-loop client on its own keep-alive connection.
type client struct {
	id    int
	base  string
	hc    *http.Client
	rng   *rand.Rand
	tr    *tracer
	flaps []flapper // per tenant
	buf   bytes.Buffer
	recs  recLog
	acks  [][]ack // per tenant
	errs  []string
	nerr  int
}

func newClient(id int, base string, seed int64, tenants []*tenantRef, tr *tracer) *client {
	c := &client{
		id:   id,
		base: base,
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   2 * time.Minute,
		},
		rng:  newRNG(seed, 1000+id),
		tr:   tr,
		acks: make([][]ack, len(tenants)),
	}
	for _, t := range tenants {
		c.flaps = append(c.flaps, newFlapper(t.edges, id, clients))
	}
	return c
}

func (c *client) failf(format string, args ...any) {
	c.nerr++
	if len(c.errs) < maxErrs {
		c.errs = append(c.errs, fmt.Sprintf("client %d: ", c.id)+fmt.Sprintf(format, args...))
	}
}

// roundTrip sends one request and reads the whole body into c.buf.
func (c *client) roundTrip(method, path string, body []byte, sp span) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	setSpanHeader(req, sp)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// do issues one request of the given kind against tenant ti, times it
// from send to the last body byte, and checks the reply.
func (c *client) do(kind opKind, ti int, t *tenantRef) opRec {
	var (
		method = http.MethodGet
		path   = "/v1/tenants/" + t.id
		body   []byte
		m      service.Mutation
		node   int
	)
	switch kind {
	case opMutation:
		m = nextMutation(c.rng, &c.flaps[ti], t.n)
		body, _ = json.Marshal(m) // a Mutation of ints and strings always encodes
		method, path = http.MethodPost, path+"/mutations"
	case opNode:
		node = c.rng.Intn(t.n)
		path += "/nodes/" + strconv.Itoa(node)
	case opStatus:
		// GET on the tenant itself
	case opMembership:
		path += "/membership"
	case opSnapshot:
		path += "/snapshot"
	}
	rec := opRec{kind: kind, tenant: ti}
	sp := c.tr.begin("http.client", span{})
	rec.start = time.Now()
	status, err := c.roundTrip(method, path, body, sp)
	rec.end = time.Now()
	c.tr.end(sp, "kind", kind.String(), "tenant", t.id, "op", m.Op)
	rec.span, rec.bytes = sp.ID, c.buf.Len()
	if err != nil {
		c.failf("%s %s: %v", kind, t.id, err)
		return rec
	}
	if status != http.StatusOK {
		c.failf("%s %s: status %d: %.200s", kind, t.id, status, c.buf.String())
		return rec
	}
	if err := c.checkReply(kind, t, node, &rec); err != nil {
		c.failf("%s %s: %v", kind, t.id, err)
		return rec
	}
	if kind == opMutation && c.tr != nil {
		c.acks[ti] = append(c.acks[ti], ack{rec.seq, m})
	}
	rec.ok = true
	return rec
}

// checkReply validates a 200 reply. Every ack must report a converged,
// legitimate configuration within the paper's bound; reads must answer
// for the tenant (and node) asked about.
func (c *client) checkReply(kind opKind, t *tenantRef, node int, rec *opRec) error {
	body := c.buf.Bytes()
	switch kind {
	case opMutation:
		var r service.MutationResult
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if !r.Converged || !r.Legit || r.Rounds > r.Bound || r.Bound != boundOf(t.protocol, t.n) || r.Seq < 1 {
			return fmt.Errorf("bad ack %+v", r)
		}
		rec.seq = r.Seq
	case opNode:
		var ni service.NodeInfo
		if err := json.Unmarshal(body, &ni); err != nil {
			return err
		}
		if ni.Node != node {
			return fmt.Errorf("asked for node %d, got %d", node, ni.Node)
		}
	case opStatus:
		var st service.TenantStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		if st.ID != t.id || !st.Legit || st.EpochsOverBound != 0 {
			return fmt.Errorf("bad status %+v", st)
		}
	default:
		if !json.Valid(body) {
			return errors.New("reply is not JSON")
		}
	}
	return nil
}

// createTenants creates every tenant over HTTP, each with the init epoch
// the service runs before it answers.
func createTenants(c *client, tenants []*tenantRef) error {
	for i, t := range tenants {
		body, err := json.Marshal(struct {
			ID       string   `json:"id"`
			Protocol string   `json:"protocol"`
			N        int      `json:"n"`
			Seed     int64    `json:"seed"`
			Edges    [][2]int `json:"edges"`
		}{t.id, t.protocol, t.n, int64(i + 1), t.edges})
		if err != nil {
			return err
		}
		status, err := c.roundTrip(http.MethodPost, "/v1/tenants", body, span{})
		if err != nil {
			return fmt.Errorf("create %s: %w", t.id, err)
		}
		if status != http.StatusCreated {
			return fmt.Errorf("create %s: status %d: %.200s", t.id, status, c.buf.String())
		}
	}
	return nil
}

func deleteTenants(c *client, tenants []*tenantRef) error {
	for _, t := range tenants {
		status, err := c.roundTrip(http.MethodDelete, "/v1/tenants/"+t.id, nil, span{})
		if err != nil {
			return fmt.Errorf("delete %s: %w", t.id, err)
		}
		if status != http.StatusNoContent {
			return fmt.Errorf("delete %s: status %d", t.id, status)
		}
	}
	return nil
}

// setupTenants generates the workload's graphs and creates its tenants,
// repeatedly (see runConfig.moreSetups); every set-up but the last is
// deleted again. It adds setup_s and graph.gen_s (medians) and returns
// the last set-up's tenants.
func setupTenants(w workload, cfg runConfig, c *client, res *result) ([]*tenantRef, error) {
	var setups, gens []float64
	var tenants []*tenantRef
	var elapsed time.Duration
	for rep := 0; cfg.moreSetups(rep, elapsed); rep++ {
		if rep > 0 {
			if err := deleteTenants(c, tenants); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		tenants = tenants[:0]
		for i, ts := range w.tenants {
			g := unitDisk(ts.n, newRNG(cfg.seed, i))
			es := g.Edges()
			edges := make([][2]int, len(es))
			for k, e := range es {
				edges[k] = [2]int{int(e.U), int(e.V)}
			}
			tenants = append(tenants, &tenantRef{fmt.Sprintf("%s-%d-s%d", ts.protocol, i, rep), ts.protocol, ts.n, edges})
		}
		gen := time.Since(t0)
		if err := createTenants(c, tenants); err != nil {
			return nil, err
		}
		took := time.Since(t0)
		elapsed += took
		setups = append(setups, took.Seconds())
		gens = append(gens, gen.Seconds())
	}
	res.addPct("setup_s", setups, 50, "s")
	res.addPct("graph.gen_s", gens, 50, "s")
	return tenants, nil
}

// runService measures one service workload end to end.
func runService(w workload, cfg runConfig, dir string, tr *tracer, res *result) {
	res.addPct("runtime.commit_timer_ms.p50", timerProbe(), 50, "ms")
	d, _, err := openDaemon(dir, tr)
	if err != nil {
		res.failf("%v", err)
		return
	}
	defer func() {
		if d != nil {
			d.kill(tr)
		}
	}()
	// Set-up traffic is untraced: its requests carry no client span, so
	// the handler wrapper records none either.
	setupClient := newClient(0, d.base, cfg.seed, nil, nil)
	tenants, err := setupTenants(w, cfg, setupClient, res)
	setupClient.hc.CloseIdleConnections()
	if err != nil {
		res.failf("set-up: %v", err)
		return
	}
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(i, d.base, cfg.seed, tenants, tr)
	}
	before := d.varz(tr)
	runtime.GC() // collect set-up garbage now, not during the window
	load(w, cfg, cs, tenants)
	res.add("heap_mb", heapMB()-recordMB(cs), "MB")
	after := d.varz(tr)

	var recs []opRec
	for _, c := range cs {
		for _, chunk := range c.recs {
			recs = append(recs, chunk...)
			res.attempted += len(chunk)
		}
	}
	reportLatency(w, recs, res)
	reportVarz(before, after, res)
	if w.mix[opMutation] < sumMix(w.mix) {
		reportOverlap(recs, res)
	}

	if w.reopen {
		topUp(cs, tenants, w.own, res)
	}
	for i, t := range tenants {
		checkTenantMembership(cs[0], t, mirror(t, cs, i), res)
	}
	for _, c := range cs {
		res.failed += c.nerr
		for _, e := range c.errs {
			if len(res.errs) < maxErrs {
				res.errs = append(res.errs, e)
			}
		}
	}
	if w.reopen {
		d = reopen(d, dir, tenants, cs[0], tr, res)
	}
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
	if tr != nil {
		reportHandlerSpans(recs, tr.snapshot(), res)
		runEngineTwin(w, cfg, tenants, cs, tr, res)
		reportLayerSum(res)
	}
}

func sumMix(mix [numKinds]int) int {
	s := 0
	for _, x := range mix {
		s += x
	}
	return s
}

// pickKind draws a request kind from the workload's mix.
func pickKind(rng *rand.Rand, mix [numKinds]int) opKind {
	x := rng.Intn(sumMix(mix))
	for k, wgt := range mix {
		if x < wgt {
			return opKind(k)
		}
		x -= wgt
	}
	return opMutation
}

// load runs the closed-loop clients until the window closes (or each has
// issued cfg.ops operations).
func load(w workload, cfg runConfig, cs []*client, tenants []*tenantRef) {
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range cs {
		var owned []int
		for i := range tenants {
			if !w.own || i%clients == c.id {
				owned = append(owned, i)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !cfg.done(i, start); i++ {
				kind := pickKind(c.rng, w.mix)
				ti := owned[i%len(owned)]
				if !w.own {
					ti = owned[c.rng.Intn(len(owned))]
				}
				rec := c.do(kind, ti, tenants[ti])
				rec.warm = cfg.warm(i, rec.start, start)
				c.recs.add(rec)
			}
		}()
	}
	wg.Wait()
}

// timedOps returns the successful timed requests pick selects.
func timedOps(recs []opRec, pick func(opRec) bool) []timedOp {
	var ops []timedOp
	for _, r := range recs {
		if !r.warm && r.ok && pick(r) {
			ops = append(ops, timedOp{r.start, r.end})
		}
	}
	return ops
}

func isMutation(r opRec) bool { return r.kind == opMutation }
func isRead(r opRec) bool     { return r.kind != opMutation }

// isView reports whether r read a whole tenant view (membership or
// snapshot): the reads whose handler encodes O(n) state under the
// tenant's read lock. A node or status read spends ~5 µs in the handler
// and the rest of its ~60 µs in loopback wake-ups, which follow the
// machine, not the code: over ten read-mix runs the p50 of all reads
// spread 12.9% (Q3−Q1 over the median), that of view reads 7.5%.
func isView(r opRec) bool { return r.kind == opMembership || r.kind == opSnapshot }

// reportLatency adds the end-to-end op metrics (the op is a view read on
// read-mix, a mutation elsewhere) and the per-kind text lines.
func reportLatency(w workload, recs []opRec, res *result) {
	primary := isMutation
	if w.mix[opMutation] < sumMix(w.mix) {
		primary = isView
	}
	res.addOps("op", "ops_per_s", timedOps(recs, primary))
	for _, k := range []struct {
		name string
		pick func(opRec) bool
	}{{"mut", isMutation}, {"read", isRead}} {
		if ops := timedOps(recs, k.pick); len(ops) > 0 {
			res.addOps(k.name, k.name+"_per_s", ops)
		}
	}
}

// reportVarz adds the service's own counters over the load: refusals
// (expected 0), fsyncs per mutation and the mean group-commit batch.
func reportVarz(before, after service.Vars, res *result) {
	refused := (after.RateLimited + after.Overloaded + after.Accepted + after.Panics) -
		(before.RateLimited + before.Overloaded + before.Accepted + before.Panics)
	res.add("service.refused", float64(refused), "count")
	res.check(refused == 0 && after.Quarantined == 0, "service refused %d requests, %d tenants quarantined", refused, after.Quarantined)
	muts := after.Mutations - before.Mutations
	if muts > 0 {
		res.add("journal.fsyncs_per_mut", float64(after.Fsyncs-before.Fsyncs)/float64(muts), "ratio")
	}
	var appends, batches int64
	ids := make([]string, 0, len(after.Journal))
	for id := range after.Journal {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		appends += after.Journal[id].Appends - before.Journal[id].Appends
		batches += after.Journal[id].Batches - before.Journal[id].Batches
	}
	if batches > 0 {
		res.add("journal.batch_mean", float64(appends)/float64(batches), "count")
	}
}

// reportOverlap splits the timed reads into those whose client span
// overlapped a mutation in flight on the same tenant and those that did
// not, and adds the mean reply size.
func reportOverlap(recs []opRec, res *result) {
	type iv struct{ start, end time.Time }
	tenants := 0
	for _, r := range recs {
		tenants = max(tenants, r.tenant+1)
	}
	muts := make([][]iv, tenants)
	for _, r := range recs {
		if r.kind == opMutation {
			muts[r.tenant] = append(muts[r.tenant], iv{r.start, r.end})
		}
	}
	// Per tenant: mutation intervals by start, with the running maximum
	// end, so "some mutation started before the read ended and ended
	// after it started" is one binary search.
	maxEnd := make([][]time.Time, tenants)
	for t, ivs := range muts {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
		me := make([]time.Time, len(ivs))
		for i, x := range ivs {
			me[i] = x.end
			if i > 0 && me[i-1].After(x.end) {
				me[i] = me[i-1]
			}
		}
		maxEnd[t] = me
	}
	var overlap, solo, sizes []float64
	for _, r := range recs {
		if r.warm || !r.ok || r.kind == opMutation {
			continue
		}
		sizes = append(sizes, float64(r.bytes))
		ivs := muts[r.tenant]
		j := sort.Search(len(ivs), func(i int) bool { return !ivs[i].start.Before(r.end) })
		if j > 0 && maxEnd[r.tenant][j-1].After(r.start) {
			overlap = append(overlap, ms(r.end.Sub(r.start)))
		} else {
			solo = append(solo, ms(r.end.Sub(r.start)))
		}
	}
	if n := len(overlap) + len(solo); n > 0 {
		res.add("service.read_overlap_share", float64(len(overlap))/float64(n), "ratio")
	}
	res.addPct("service.read_overlap_ms.p50", overlap, 50, "ms")
	res.addPct("service.read_solo_ms.p50", solo, 50, "ms")
	res.addMean("service.read_bytes_per_op", sizes, "B")
}

// reportHandlerSpans joins each client span to its handler span and adds
// the transport (client minus handler) and handler times per request
// kind, and the checkpoint cost: the mean handler time of acks with
// seq ≡ 0 (mod 32) minus that of all other acks.
func reportHandlerSpans(recs []opRec, spans []span, res *result) {
	handler := map[uint64]float64{}
	for _, s := range spans {
		if s.Name == "service.handler" && s.Parent != 0 {
			handler[s.Parent] = ms(time.Duration(s.End - s.Start))
		}
	}
	var mutH, mutT, readT, ckpt, other []float64
	readH := make([][]float64, numKinds)
	for _, r := range recs {
		h, ok := handler[r.span]
		if r.warm || !r.ok || !ok {
			continue
		}
		transport := ms(r.end.Sub(r.start)) - h
		if r.kind == opMutation {
			mutH = append(mutH, h)
			mutT = append(mutT, transport)
			if r.seq%32 == 0 {
				ckpt = append(ckpt, h)
			} else {
				other = append(other, h)
			}
			continue
		}
		readT = append(readT, transport)
		readH[r.kind] = append(readH[r.kind], h)
	}
	res.addPct("http.mut_transport_ms.p50", mutT, 50, "ms")
	res.addPct("http.read_transport_ms.p50", readT, 50, "ms")
	res.addPct("service.mut_handler_ms.p50", mutH, 50, "ms")
	res.addPct("service.mut_handler_ms.p99", mutH, 99, "ms")
	if len(ckpt) > 0 && len(other) > 0 {
		res.add("service.checkpoint_ms", stats.Mean(ckpt)-stats.Mean(other), "ms")
	}
	for k := opNode; k < numKinds; k++ {
		res.addPct("service.read_handler_ms."+k.String()+".p50", readH[k], 50, "ms")
	}
}

// reportLayerSum adds the outside-in estimate of a mutation's handler
// time, (flap share × SetLink) + epoch + legitimacy check + one fsync,
// as a ratio of the measured handler p50.
func reportLayerSum(res *result) {
	get := func(name string) (float64, bool) {
		m, ok := res.lookup(name)
		return m.value, ok
	}
	share, ok1 := get("twin.flap_share")
	setlink, ok2 := get("sim.setlink_ms.p50")
	epoch, ok3 := get("sim.epoch_ms.p50")
	check, ok4 := get("faults.check_ms.p50")
	fsync, ok5 := get("disk.fsync_ms.p50")
	handler, ok6 := get("service.mut_handler_ms.p50")
	if ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && handler > 0 {
		res.add("layer_sum_ratio", (share*setlink+epoch+check+fsync)/handler, "ratio")
	}
}

// topUp mutates each tenant until its seq is 16 past a checkpoint, so
// the reopen replays exactly 16 journal entries per tenant.
func topUp(cs []*client, tenants []*tenantRef, own bool, res *result) {
	for i, t := range tenants {
		c := cs[0]
		if own {
			c = cs[i%clients]
		}
		status, err := c.roundTrip(http.MethodGet, "/v1/tenants/"+t.id, nil, span{})
		var st service.TenantStatus
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(c.buf.Bytes(), &st)
		}
		res.check(err == nil && status == http.StatusOK, "status %s before top-up: %d %v", t.id, status, err)
		for seq := st.Seq; err == nil && seq%32 != 16; {
			// A failed top-up is counted by the client like any request.
			res.attempted++
			rec := c.do(opMutation, i, t)
			if !rec.ok {
				break
			}
			seq = rec.seq
		}
	}
}

// mirror is the topology the benchmark believes tenant ti has now: its
// initial edges minus every edge a client removed and has not re-added.
func mirror(t *tenantRef, cs []*client, ti int) *graph.Graph {
	removed := map[[2]int]bool{}
	for _, c := range cs {
		if f := c.flaps[ti]; f.pending >= 0 {
			removed[f.edges[f.pending]] = true
		}
	}
	g := graph.New(t.n)
	for _, e := range t.edges {
		if !removed[e] {
			g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
		}
	}
	return g
}

func checkTenantMembership(c *client, t *tenantRef, g *graph.Graph, res *result) {
	status, err := c.roundTrip(http.MethodGet, "/v1/tenants/"+t.id+"/membership", nil, span{})
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err == nil {
		err = checkMembership(t.protocol, g, c.buf.Bytes())
	}
	res.check(err == nil, "membership of %s: %v", t.id, err)
}

// checkMembership verifies a GET .../membership body against topology g:
// a maximal matching for SMM, a maximal independent set for SMI.
func checkMembership(protocol string, g *graph.Graph, body []byte) error {
	var m struct {
		Edges [][2]int `json:"edges"`
		Nodes []int    `json:"nodes"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return err
	}
	if protocol == service.ProtocolSMM {
		edges := make([]graph.Edge, len(m.Edges))
		for i, e := range m.Edges {
			if e[0] < 0 || e[1] < 0 || e[0] >= g.N() || e[1] >= g.N() || e[0] == e[1] {
				return fmt.Errorf("matched pair %v out of range", e)
			}
			edges[i] = graph.NewEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
		}
		return verify.IsMaximalMatching(g, edges)
	}
	set := make([]graph.NodeID, len(m.Nodes))
	for i, v := range m.Nodes {
		if v < 0 || v >= g.N() {
			return fmt.Errorf("set node %d out of range", v)
		}
		set[i] = graph.NodeID(v)
	}
	return verify.IsMaximalIndependentSet(g, set)
}

// reopen reads the journal counters and every tenant's status, kills the
// service, times service.Open on its data directory (recovery_s), and
// checks that every status reads byte-identical afterwards. It returns
// the reopened daemon, or nil if it could not be opened.
func reopen(d *daemon, dir string, tenants []*tenantRef, c *client, tr *tracer, res *result) *daemon {
	v := d.varz(tr)
	var replay, segments int64
	for _, t := range tenants {
		replay += v.Journal[t.id].ReplaySuffixBytes
		segments += int64(v.Journal[t.id].Segments)
	}
	res.add("journal.replay_bytes", float64(replay), "B")
	res.add("journal.segments", float64(segments), "count")
	want := make([][]byte, len(tenants))
	for i, t := range tenants {
		status, err := c.roundTrip(http.MethodGet, "/v1/tenants/"+t.id, nil, span{})
		res.check(err == nil && status == http.StatusOK, "status %s before kill: %d %v", t.id, status, err)
		want[i] = bytes.Clone(c.buf.Bytes())
	}
	c.hc.CloseIdleConnections()
	d.kill(tr)
	nd, took, err := openDaemon(dir, tr)
	if err != nil {
		res.check(false, "reopen: %v", err)
		return nil
	}
	res.add("recovery_s", took.Seconds(), "s")
	c.base = nd.base
	for i, t := range tenants {
		status, err := c.roundTrip(http.MethodGet, "/v1/tenants/"+t.id, nil, span{})
		ok := err == nil && status == http.StatusOK && bytes.Equal(want[i], c.buf.Bytes())
		res.check(ok, "status %s after reopen differs: %d %v\nbefore %.300s\nafter  %.300s", t.id, status, err, want[i], c.buf.String())
	}
	return nd
}
