package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	gs "geospanner"
	"geospanner/internal/graph"
	"geospanner/internal/maintain"
	"geospanner/internal/routing"
	"geospanner/internal/serve"
	"geospanner/internal/udg"
)

// serveSpec is a topology-service workload: one writer applies churn
// batches back to back while one reader routes between alive nodes.
type serveSpec struct {
	n       int
	profile gs.SchedulerProfile
	batch   int  // events per epoch
	http    bool // through Server.Handler on a loopback listener
	// instances splits the run into that many servers, one after the
	// other, each on its own network and churn stream with an equal share
	// of the window, of the setup and of the recovery time. At n=500 the
	// cost of an epoch and of a recovery varies by instance by up to 40%,
	// more than the host varies between runs; at n=5000 it does not.
	instances int
}

// mixedBalanced keeps the mixed profile's shares of moves (45%) and of
// membership events (55%) but splits the latter 15% crash, 28% join and
// 12% leave, so joins balance departures and the alive set stays near n.
// The mixed profile itself (20/20/15) loses 0.6 nodes per 4-event epoch:
// over a window of several hundred epochs it shrinks the network towards
// its quarter floor, so the cost per epoch would fall with the number of
// epochs a run manages to apply.
var mixedBalanced = gs.SchedulerProfile{Name: "mixed-balanced", Move: 45, Crash: 60, Join: 88}

var serveSpecs = map[string]serveSpec{
	"churn-5k":     {n: 5000, profile: serve.ProfileMove, batch: 5, instances: 1},
	"spannerd-500": {n: 500, profile: mixedBalanced, batch: 4, http: true, instances: 3},
}

// target is one durable server under test plus, in a traced run, the
// mirror that repeats its work layer by layer.
type target struct {
	b      *bench
	srv    *gs.Server
	dir    string // the server's WAL directory
	radius float64
	mirror *mirror
	// gate pauses the reader while the traced writer measures the
	// allocations of the mirror's publication (nil in untraced runs).
	gate *sync.RWMutex
	// probed is set once the traced run has measured the HTTP overhead.
	probed bool
	// recovered is set once a recovery has been described in the notes.
	recovered bool
}

// routeSample is a route kept for validation after the window, with the
// epoch it ran against.
type routeSample struct {
	ep       *gs.Epoch
	src, dst int
	path     []int
}

// maxRouteSamples bounds the routes validated per run: one per new epoch
// the reader sees, until the cap.
const maxRouteSamples = 16

// instanceSeedStride separates the seeds of a run's instances: instance
// i uses seed+stride·i for its network, +1 for its churn stream and +2
// for its reader.
const instanceSeedStride = 1000

func runServe(b *bench, spec serveSpec) error {
	for i := range spec.instances {
		if err := b.serveInstance(spec, i); err != nil {
			return err
		}
	}
	return nil
}

// serveInstance sets up, drives, checks and recovers instance i of a
// serve workload. A traced run mirrors the first instance only.
func (b *bench) serveInstance(spec serveSpec, i int) error {
	radius := radiusFor(spec.n)
	seed := b.seed + int64(i)*instanceSeedStride
	share := time.Duration(spec.instances)
	inst, err := gs.GenerateInstance(seed, spec.n, region, radius)
	if err != nil {
		return err
	}
	setup := b.tr.begin("setup", b.root, b.nextOp())
	s, err := newTarget(b, setup, i, inst.Points, radius, minRepeatTime/share)
	if err != nil {
		return err
	}
	if i == 0 {
		b.measureHeap()
	}
	if b.tr != nil && i == 0 {
		if err := s.startMirror(setup, inst.Points); err != nil {
			return err
		}
		sr, err := b.stageBuild(setup, b.nextOp(), inst.UDG, radius)
		if err != nil {
			return err
		}
		b.recordStages([]*stageResult{sr}, spec.n)
		b.check(sr.pldel.Equal(s.mirror.initial), "stage-by-stage distributed LDel differs from the maintained backbone at epoch 0")
	}
	b.tr.end(setup)

	sched := gs.NewSchedulerProfile(seed+1, inst.Points, region, radius, spec.profile)
	window := b.tr.begin("window", b.root, 0)
	var samples []routeSample
	if spec.http {
		samples, err = s.windowHTTP(window, sched, spec.batch, seed+2, b.window/share)
	} else {
		samples, err = s.windowInProc(window, sched, spec.batch, seed+2, b.window/share)
	}
	b.tr.end(window)
	if err != nil {
		return err
	}
	if spec.http {
		s.alignLog(sched, spec.batch)
	}
	validateRoutes(b, samples)
	st := s.srv.Stats()
	b.note("instance %d: epochs %d, patched %d, patch scope fallbacks %d, role-churn fallbacks %d, rejected events %d, alive at end %d of %d",
		i, st.Epochs, st.PatchedEpochs, st.PatchFallbacks, st.Fallbacks, st.Rejected, s.srv.Topology().Alive, spec.n)
	return s.finish(minRepeatTime / share)
}

// newTarget sets the server of instance k up from cold — NewServer
// including the WAL's creation — as many times as repeat asks, and keeps
// the last one.
func newTarget(b *bench, parent int64, k int, pts []gs.Point, radius float64, minTime time.Duration) (*target, error) {
	s := &target{b: b, radius: radius}
	samples, err := repeat(minTime, func(i int) (time.Duration, error) {
		if s.srv != nil {
			if err := s.srv.Close(); err != nil {
				return 0, err
			}
		}
		s.dir = b.dir(fmt.Sprintf("wal-%d-%d", k, i))
		var err error
		d := b.timed("serve.new_server", parent, 0, func() {
			s.srv, err = gs.NewServer(pts, radius, gs.WithWAL(s.dir))
		})
		return d, err
	})
	b.setupS = append(b.setupS, samples...)
	return s, err
}

// startMirror builds the traced run's mirror of the server's state.
func (s *target) startMirror(parent int64, pts []gs.Point) error {
	var err error
	s.gate = &sync.RWMutex{}
	s.mirror, err = newMirror(s.b, parent, pts, s.radius, s.b.dir("mirror-wal"), s.gate)
	return err
}

// mirrorStep is the traced bookkeeping shared by both transports: the
// mirror repeats the batch the server just took.
func (s *target) mirrorStep(parent, op int64, events []maintain.Event, opDur time.Duration) {
	if s.mirror == nil {
		return
	}
	if err := s.mirror.step(parent, op, events, opDur); err != nil {
		s.b.note("mirror epoch %d: %v", s.mirror.seq, err)
	}
}

// windowInProc runs the churn-5k loop: Server.Apply back to back against
// Epoch.Route on the current epoch, between nodes of one live component.
func (s *target) windowInProc(window int64, sched *gs.Scheduler, batch int, readSeed int64, dur time.Duration) ([]routeSample, error) {
	b := s.b
	var stop atomic.Bool
	var samples []routeSample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(readSeed))
		var lastSeq, compSeq uint64 = ^uint64(0), ^uint64(0)
		var comp []int32
		start := time.Now()
		for !stop.Load() {
			ep := s.srv.Current()
			if ep.Seq != compSeq {
				comp, compSeq = components(ep), ep.Seq
			}
			src, dst, ok := connectedPair(rng, comp)
			if !ok {
				continue
			}
			if s.gate != nil {
				s.gate.RLock()
			}
			t := time.Now()
			path, err := ep.Route(src, dst)
			d := time.Since(t)
			if s.gate != nil {
				s.gate.RUnlock()
			}
			if err != nil {
				b.reads.fail()
				continue
			}
			b.reads.ok(d, len(path)-1)
			if ep.Seq != lastSeq && len(samples) < maxRouteSamples {
				lastSeq = ep.Seq
				samples = append(samples, routeSample{ep, src, dst, path})
			}
		}
		b.reads.busy += time.Since(start)
	}()

	deadline := time.Now().Add(dur)
	start := time.Now()
	for time.Now().Before(deadline) {
		events := sched.Batch(batch)
		op := b.nextOp()
		epoch := b.tr.begin("epoch", window, op)
		var ep *gs.Epoch
		var err error
		d := b.timed("serve.apply", epoch, op, func() { ep, err = s.srv.Apply(events) })
		if err != nil {
			b.writes.fail()
			b.note("epoch failed: %v", err)
		} else {
			b.writes.ok(d)
			b.writes.items += int64(ep.Stats.Batch.Applied)
		}
		s.mirrorStep(epoch, op, events, d)
		b.tr.end(epoch)
	}
	b.writes.busy += time.Since(start)
	stop.Store(true)
	wg.Wait()
	return samples, nil
}

// aliveSet returns the liveness of every node slot of ep.
func aliveSet(ep *gs.Epoch) []bool {
	alive := make([]bool, ep.N())
	for v := range alive {
		alive[v] = ep.Alive(v)
	}
	return alive
}

// components labels every node of ep with the index of its live
// component in the epoch's health report, and a dead node with -1.
func components(ep *gs.Epoch) []int32 {
	comp := make([]int32, ep.N())
	for v := range comp {
		comp[v] = -1
	}
	for i, c := range ep.Report.Components {
		for _, v := range c.Nodes {
			comp[v] = int32(i)
		}
	}
	return comp
}

// predictComponents labels the live components of the epoch the server
// will publish after applying events to ep: the unit disk graph over the
// nodes then alive, at their positions then.
func predictComponents(ep *gs.Epoch, events []maintain.Event, radius float64) []int32 {
	n := ep.N()
	pts := make([]gs.Point, n)
	alive := aliveSet(ep)
	for v := range pts {
		pts[v] = ep.UDG.Point(v)
	}
	for _, e := range events {
		switch e.Kind {
		case maintain.EventMove:
			pts[e.Node] = e.To
		case maintain.EventJoin:
			alive[e.Node] = true
		case maintain.EventLeave, maintain.EventCrash:
			alive[e.Node] = false
		}
	}
	g := udg.Build(pts, radius)
	comp := make([]int32, n)
	for v := range comp {
		comp[v] = -1
	}
	var label int32
	var stack []int
	for v := range n {
		if !alive[v] || comp[v] >= 0 {
			continue
		}
		comp[v] = label
		stack = append(stack[:0], v)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(u) {
				if alive[w] && comp[w] < 0 {
					comp[w] = label
					stack = append(stack, w)
				}
			}
		}
		label++
	}
	return comp
}

// intersect labels the nodes that share a component in both a and b: two
// nodes get the same label only if they do in a and in b.
func intersect(a, b []int32) []int32 {
	out := make([]int32, len(a))
	labels := make(map[[2]int32]int32)
	for v := range a {
		if a[v] < 0 || b[v] < 0 {
			out[v] = -1
			continue
		}
		key := [2]int32{a[v], b[v]}
		l, ok := labels[key]
		if !ok {
			l = int32(len(labels))
			labels[key] = l
		}
		out[v] = l
	}
	return out
}

// samePartition reports whether a and b label the same nodes and group
// them into the same components.
func samePartition(a, b []int32) bool {
	fwd := make(map[int32]int32)
	back := make(map[int32]int32)
	for v := range a {
		if (a[v] < 0) != (b[v] < 0) {
			return false
		}
		if a[v] < 0 {
			continue
		}
		if l, ok := fwd[a[v]]; ok && l != b[v] {
			return false
		}
		if l, ok := back[b[v]]; ok && l != a[v] {
			return false
		}
		fwd[a[v]], back[b[v]] = b[v], a[v]
	}
	return true
}

// connectedPair draws two distinct nodes with the same component label, so
// a route between them exists.
func connectedPair(rng *rand.Rand, comp []int32) (int, int, bool) {
	n := len(comp)
	for range 64 {
		src := rng.Intn(n)
		if comp[src] < 0 {
			continue
		}
		for range 64 {
			if dst := rng.Intn(n); dst != src && comp[dst] == comp[src] {
				return src, dst, true
			}
		}
	}
	return 0, 0, false
}

// alivePair draws two distinct alive nodes.
func alivePair(rng *rand.Rand, n int, alive func(int) bool) (int, int, bool) {
	pick := func() (int, bool) {
		for range 64 {
			if v := rng.Intn(n); alive(v) {
				return v, true
			}
		}
		return 0, false
	}
	src, ok1 := pick()
	dst, ok2 := pick()
	return src, dst, ok1 && ok2 && src != dst
}

// httpAPI is the server's Handler on a loopback listener plus a client.
type httpAPI struct {
	url    string
	client *http.Client
	srv    *http.Server
	done   chan error
}

func startHTTP(srv *gs.Server) (*httpAPI, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	api := &httpAPI{
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}},
		srv:    &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		done:   make(chan error, 1),
	}
	go func() { api.done <- api.srv.Serve(ln) }()
	return api, nil
}

// stop shuts the listener down and waits for Serve to return.
func (a *httpAPI) stop() error {
	a.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := a.srv.Shutdown(ctx)
	if serr := <-a.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// get issues one GET and returns the status and body.
func (a *httpAPI) get(path string) (int, []byte, error) {
	resp, err := a.client.Get(a.url + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (a *httpAPI) post(path string, body []byte) (int, []byte, error) {
	resp, err := a.client.Post(a.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func routePath(src, dst int) string {
	return "/v1/route?src=" + strconv.Itoa(src) + "&dst=" + strconv.Itoa(dst)
}

// windowHTTP runs the spannerd-500 loop: POST /v1/epoch with the wire
// codec against GET /v1/route between nodes connected in the last
// acknowledged epoch and in the one being applied.
func (s *target) windowHTTP(window int64, sched *gs.Scheduler, batch int, readSeed int64, dur time.Duration) ([]routeSample, error) {
	b := s.b
	api, err := startHTTP(s.srv)
	if err != nil {
		return nil, err
	}
	// view labels the nodes the reader draws endpoints from by component:
	// the live components of the last acknowledged epoch and, while a
	// batch is in flight, intersected with those the batch will leave, so
	// every route is between nodes connected in whichever of the two
	// epochs answers it. The writer replaces view under viewMu's write
	// lock, which waits out the read in flight on the older view; the
	// reader holds the read lock across its request.
	var viewMu sync.RWMutex
	acked := components(s.srv.Current())
	view := acked
	setView := func(v []int32) {
		viewMu.Lock()
		view = v
		viewMu.Unlock()
	}
	failedBy := map[int]int64{} // failed reads by HTTP status, 0 = transport
	mispredicted := 0           // epochs whose components differed from the prediction

	var stop atomic.Bool
	var samples []routeSample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(readSeed))
		var lastSeq uint64 = ^uint64(0)
		start := time.Now()
		for !stop.Load() {
			viewMu.RLock()
			src, dst, ok := connectedPair(rng, view)
			if !ok {
				viewMu.RUnlock()
				continue
			}
			if s.gate != nil {
				s.gate.RLock()
			}
			t := time.Now()
			status, body, err := api.get(routePath(src, dst))
			d := time.Since(t)
			if s.gate != nil {
				s.gate.RUnlock()
			}
			viewMu.RUnlock()
			var rr gs.RouteResponse
			if err != nil || status != http.StatusOK || json.Unmarshal(body, &rr) != nil {
				b.reads.fail()
				failedBy[status]++
				continue
			}
			b.reads.ok(d, rr.Hops)
			if rr.Epoch != lastSeq && len(samples) < maxRouteSamples {
				if ep := s.srv.Current(); ep.Seq == rr.Epoch {
					lastSeq = rr.Epoch
					samples = append(samples, routeSample{ep, src, dst, rr.Path})
				}
			}
		}
		b.reads.busy += time.Since(start)
	}()

	deadline := time.Now().Add(dur)
	start := time.Now()
	for time.Now().Before(deadline) {
		events := sched.Batch(batch)
		body, err := json.Marshal(gs.EpochRequest{Events: gs.EncodeTopologyEvents(events)})
		if err != nil {
			stop.Store(true)
			wg.Wait()
			api.stop()
			return nil, err
		}
		predicted := predictComponents(s.srv.Current(), events, s.radius)
		setView(intersect(acked, predicted))
		op := b.nextOp()
		epoch := b.tr.begin("epoch", window, op)
		var status int
		var resp []byte
		d := b.timed("serve.post_epoch", epoch, op, func() { status, resp, err = api.post("/v1/epoch", body) })
		var er gs.EpochResponse
		if err != nil || status != http.StatusOK || json.Unmarshal(resp, &er) != nil {
			b.writes.fail()
			b.note("epoch failed: status %d: %v %s", status, err, bytes.TrimSpace(resp))
		} else {
			b.writes.ok(d)
			b.writes.items += int64(er.Applied)
			// The writer is the only one applying, so the current epoch
			// is the one just acknowledged.
			acked = components(s.srv.Current())
			setView(acked)
			if !samePartition(predicted, acked) {
				mispredicted++
			}
		}
		s.mirrorStep(epoch, op, events, d)
		b.tr.end(epoch)
	}
	b.writes.busy += time.Since(start)
	stop.Store(true)
	wg.Wait()
	if mispredicted > 0 {
		b.note("epochs whose live components differed from the reader's prediction: %d", mispredicted)
	}
	for status, k := range failedBy {
		b.note("failed reads with HTTP status %d: %d", status, k)
	}
	if s.mirror != nil {
		if err := s.httpOverhead(api); err != nil {
			api.stop()
			return nil, err
		}
	}
	return samples, api.stop()
}

// The WAL checkpoints every checkpointEvery epochs (its default), and a
// recovery replays the records since the last checkpoint. alignLog applies
// untimed epochs after the window until the log holds replayAt of them, so
// recover_s replays the same number of records on every run instead of
// wherever the window happened to stop. At n=500 a replayed record costs
// about 0.15 ms, so 0 to 63 of them moved recover_s by about 10%.
const (
	checkpointEvery = 64
	replayAt        = checkpointEvery / 2
)

func (s *target) alignLog(sched *gs.Scheduler, batch int) {
	b := s.b
	for range 2 * checkpointEvery {
		if s.srv.Current().Seq%checkpointEvery == replayAt {
			return
		}
		events := sched.Batch(batch)
		op := b.nextOp()
		epoch := b.tr.begin("epoch", b.root, op)
		var err error
		d := b.timed("serve.align_apply", epoch, op, func() { _, err = s.srv.Apply(events) })
		if err != nil {
			b.tail.fail()
			b.note("alignment epoch failed: %v", err)
		} else {
			b.tail.ok(d)
		}
		s.mirrorStep(epoch, op, events, d)
		b.tr.end(epoch)
	}
}

// validateRoutes checks the sampled routes against the epoch they ran on.
func validateRoutes(b *bench, samples []routeSample) {
	b.check(len(samples) > 0, "no route was sampled for validation")
	for _, rs := range samples {
		udg, bb := thaw(rs.ep.UDG.Frozen), thaw(rs.ep.Backbone.Frozen)
		ok := len(rs.path) > 0 && rs.path[0] == rs.src && rs.path[len(rs.path)-1] == rs.dst
		b.check(ok, "route %d->%d at epoch %d has endpoints %v", rs.src, rs.dst, rs.ep.Seq, rs.path)
		if err := routing.ValidatePath(rs.path, udg, bb); err != nil {
			b.check(false, "route %d->%d at epoch %d: %v", rs.src, rs.dst, rs.ep.Seq, err)
		}
	}
}

// thaw copies a frozen snapshot back into a mutable graph.
func thaw(f *graph.Frozen) *graph.Graph {
	g := graph.New(f.Points())
	for v := range f.N() {
		for _, u := range f.Neighbors(v) {
			if int(u) > v {
				g.AddEdge(v, int(u))
			}
		}
	}
	return g
}

// abandon runs the end-of-churn checks on the live server — and, traced,
// the HTTP probe and the mirror's verification — then drops the server
// without Close, as after a crash. Recovery samples must reproduce the
// returned epoch.
func (s *target) abandon() (*gs.Epoch, error) {
	b := s.b
	op := b.nextOp()
	verify := b.tr.begin("verify", b.root, op)
	defer b.tr.end(verify)
	b.timed("check.rebuild", verify, op, func() { checkRebuild(b, s.srv.State()) })
	if s.mirror != nil {
		if !s.probed {
			api, err := startHTTP(s.srv)
			if err != nil {
				return nil, err
			}
			err = s.httpOverhead(api)
			if serr := api.stop(); err == nil {
				err = serr
			}
			if err != nil {
				return nil, err
			}
		}
		s.mirror.verify(verify, op, s.srv.State())
		s.mirror.record()
	}
	live := s.srv.Current()
	s.srv = nil
	return live, nil
}

// recoverOnce recovers the abandoned server from its WAL, checks the
// recovered epoch against live, and closes it again.
func (s *target) recoverOnce(live *gs.Epoch, fp uint64) (time.Duration, error) {
	b := s.b
	var rs *gs.Server
	var info gs.RecoverInfo
	var err error
	d := b.timed("serve.recover", b.root, b.nextOp(), func() { rs, info, err = gs.RecoverServer(s.dir) })
	if err != nil {
		return 0, err
	}
	if !s.recovered {
		s.recovered = true
		b.note("recovery of %s: epoch %d from the checkpoint at %d, %d records replayed",
			filepath.Base(s.dir), info.Seq, info.SnapshotSeq, info.Replayed)
	}
	got := rs.Current()
	b.check(got.Seq == live.Seq && got.Fingerprint() == fp,
		"recovered epoch %d fingerprint %x, live epoch %d fingerprint %x", got.Seq, got.Fingerprint(), live.Seq, fp)
	return d, rs.Close()
}

// finish abandons the server and recovers it as many times as repeat asks.
func (s *target) finish(minTime time.Duration) error {
	live, err := s.abandon()
	if err != nil {
		return err
	}
	fp := live.Fingerprint()
	samples, err := repeat(minTime, func(int) (time.Duration, error) { return s.recoverOnce(live, fp) })
	s.b.recoverS = append(s.b.recoverS, samples...)
	s.b.check(err == nil, "recover: %v", err)
	return nil
}

// checkRebuild compares the maintained backbone with a from-scratch
// rebuild from the same roles.
func checkRebuild(b *bench, st *maintain.State) {
	alive, status := st.Roles()
	ref, err := maintain.FromRoles(append([]gs.Point(nil), st.Positions()...), st.Radius(), alive, status)
	if err != nil {
		b.check(false, "FromRoles: %v", err)
		return
	}
	if err := sameStructures(st, ref); err != nil {
		b.check(false, "maintained backbone vs FromRoles rebuild: %v", err)
	}
}

// sameStructures reports whether two states derive identical connector
// and planar LDel structures.
func sameStructures(a, b *maintain.State) error {
	ca, pa, err := a.Structures()
	if err != nil {
		return err
	}
	cb, pb, err := b.Structures()
	if err != nil {
		return err
	}
	if !ca.ICDS.Equal(cb.ICDS) {
		return fmt.Errorf("ICDS differs")
	}
	if !pa.Equal(pb) {
		return fmt.Errorf("planar LDel differs")
	}
	return nil
}

// httpOverhead routes the same pairs in process and over HTTP on the
// final epoch and records the difference of the medians.
func (s *target) httpOverhead(api *httpAPI) error {
	const pairs = 2000
	ep := s.srv.Current()
	rng := rand.New(rand.NewSource(s.b.seed + 3))
	var inproc, viaHTTP []int64
	for range pairs {
		src, dst, ok := alivePair(rng, ep.N(), ep.Alive)
		if !ok {
			continue
		}
		t := time.Now()
		_, err := ep.Route(src, dst)
		d := time.Since(t)
		if err == nil {
			inproc = append(inproc, int64(d))
		}
		t = time.Now()
		status, _, err := api.get(routePath(src, dst))
		d = time.Since(t)
		if err != nil {
			return err
		}
		if status == http.StatusOK {
			viaHTTP = append(viaHTTP, int64(d))
		}
	}
	slices.Sort(inproc)
	slices.Sort(viaHTTP)
	s.b.layer["serve.http_route_overhead_us"] = (quantile(viaHTTP, 0.5) - quantile(inproc, 0.5)) / 1e3
	s.probed = true
	return nil
}
