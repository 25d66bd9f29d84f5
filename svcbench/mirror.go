package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	gs "geospanner"
	"geospanner/internal/cluster"
	"geospanner/internal/connector"
	"geospanner/internal/graph"
	"geospanner/internal/ldel"
	"geospanner/internal/maintain"
	"geospanner/internal/routing"
	"geospanner/internal/sim"
	"geospanner/internal/wal"
)

// mirror repeats, in a traced run, the work of the server's write path
// one layer call at a time: a maintain.State and a wal.Log fed the same
// batches in lockstep with the server, and the publication steps Apply
// performs (graph snapshots, components, router). Each call is a span.
// At the end the mirror must equal the server bit for bit, which shows
// the per-layer numbers describe the same work.
type mirror struct {
	b       *bench
	gate    *sync.RWMutex // pauses the reader while publication allocates
	st      *maintain.State
	log     *wal.Log
	dir     string
	radius  float64
	seq     uint64
	initial *graph.Graph // planar LDel at epoch 0

	epochs, patched, scopeFallbacks int
	events, rejected, roleChanges   int
	keys, triangles                 int     // witness sizes at epoch 0
	publish                         []int64 // per epoch: op time minus maintain calls, ns
	alloc                           []uint64
	walBytes                        []int64
	replayed                        int
}

func newMirror(b *bench, parent int64, pts []gs.Point, radius float64, dir string, gate *sync.RWMutex) (*mirror, error) {
	m := &mirror{b: b, gate: gate, dir: dir, radius: radius}
	op := b.nextOp()
	m.st = maintain.New(append([]gs.Point(nil), pts...), radius)
	b.timed("maintain.clustering", parent, op, func() { m.st.Clustering() })
	var err error
	b.timed("maintain.rebuild", parent, op, func() { _, m.initial, err = m.st.Structures() })
	if err != nil {
		return nil, err
	}
	if err := m.timeWitness(parent, op, m.initial); err != nil {
		return nil, err
	}
	// Create writes the initial checkpoint: the same work as a compaction.
	b.timed("wal.compact", parent, op, func() {
		m.log, err = wal.Create(dir, m.st, 0, maintain.DefaultFallbackFraction, wal.Config{})
	})
	return m, err
}

// timeWitness times the connector and LDel witness builds on the mirror's
// current roles — the cold build of setup, recovery and rebuild epochs —
// and checks that they reproduce the maintained backbone.
func (m *mirror) timeWitness(parent, op int64, want *graph.Graph) error {
	g, cl := m.st.AliveGraph(), m.st.Clustering()
	var conn *connector.Result
	var cw *connector.Witness
	m.b.timed("connector.build", parent, op, func() { conn, cw = connector.CentralizedWitness(g, cl) })
	var res *ldel.Result
	var lw *ldel.Witness
	var err error
	m.b.timed("ldel.build", parent, op, func() { res, lw, err = ldel.CentralizedWitness(conn.ICDS, conn.InBackbone, m.radius) })
	if err != nil {
		return err
	}
	if m.epochs == 0 {
		m.keys, m.triangles = cw.Keys(), lw.Triangles()
	}
	m.b.check(res.PLDel.Equal(want), "witness build at mirror epoch %d differs from the maintained backbone", m.seq)
	return nil
}

// step applies one batch the way the server's Apply does, append before
// apply, with a span around every layer call.
func (m *mirror) step(parent, op int64, events []maintain.Event, opDur time.Duration) error {
	b := m.b
	m.seq++
	m.epochs++
	prev := m.log.Stats()
	var err error
	b.timed("wal.append", parent, op, func() { err = m.log.Append(m.seq, events) })
	if err != nil {
		return err
	}
	if cur := m.log.Stats(); cur.Segments == prev.Segments {
		m.walBytes = append(m.walBytes, cur.SegmentBytes-prev.SegmentBytes)
	}

	var bs maintain.BatchStats
	dApply := b.timed("maintain.apply_batch", parent, op, func() { bs = m.st.ApplyBatch(events, maintain.DefaultFallbackFraction) })
	m.events += bs.Events
	m.rejected += bs.Rejected
	m.roleChanges += bs.RoleChanges
	var cl *cluster.Result
	dClust := b.timed("maintain.clustering", parent, op, func() { cl = m.st.Clustering() })

	patches, recomputes, fallbacks := m.st.Patches, m.st.Recomputes, m.st.PatchFallbacks
	var conn *connector.Result
	var pldel *graph.Graph
	id := b.tr.begin("maintain.structures", parent, op)
	start := time.Now()
	conn, pldel, err = m.st.Structures()
	dStruct := time.Since(start)
	b.tr.end(id)
	m.scopeFallbacks += m.st.PatchFallbacks - fallbacks
	switch {
	case m.st.Patches > patches:
		b.tr.rename(id, "maintain.patch")
		m.patched++
	case m.st.Recomputes > recomputes:
		b.tr.rename(id, "maintain.rebuild")
	default:
		b.tr.rename(id, "maintain.cached")
	}
	m.publish = append(m.publish, int64(opDur-dApply-dClust-dStruct))
	if err != nil {
		return err
	}

	// Publication, as the server's buildEpoch does it. The reader pauses
	// so the allocation count is the publication's alone.
	m.gate.Lock()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pts := m.st.Positions()
	var liveG *graph.Graph
	var udgSnap, bbSnap *graph.Snapshot
	b.timed("graph.snapshot", parent, op, func() {
		liveG = graph.New(pts)
		liveG.AddAll(m.st.AliveGraph())
		bbG := graph.New(pts)
		bbG.AddAll(pldel)
		udgSnap, bbSnap = liveG.SnapshotAt(m.seq), bbG.SnapshotAt(m.seq)
	})
	b.timed("graph.components", parent, op, func() { liveG.Components() })
	b.timed("routing.router", parent, op, func() {
		routing.NewDSRouterFrozen(udgSnap.Frozen, routing.NewPlannerFrozen(bbSnap.Frozen), cl.DominatorsOf, conn.InBackbone)
	})
	runtime.ReadMemStats(&after)
	m.gate.Unlock()
	m.alloc = append(m.alloc, after.TotalAlloc-before.TotalAlloc)

	if m.st.Recomputes > recomputes {
		if err := m.timeWitness(parent, op, pldel); err != nil {
			return err
		}
	}
	id = b.tr.begin("wal.compact", parent, op)
	compacted, err := m.log.MaybeCompact(m.st, m.seq)
	b.tr.end(id)
	if !compacted {
		b.tr.rename(id, "wal.compact_check")
	}
	return err
}

// verify checks the mirror against the server's state, then abandons the
// mirror's log and recovers it, which must reproduce the same state.
func (m *mirror) verify(parent, op int64, server *maintain.State) {
	b := m.b
	b.check(sameRoles(m.st, server), "mirror roles or positions differ from the server's")
	if err := sameStructures(m.st, server); err != nil {
		b.check(false, "mirror vs server: %v", err)
	}
	var res *wal.RecoverResult
	var log *wal.Log
	var err error
	b.timed("wal.recover", parent, op, func() { log, res, err = wal.Recover(m.dir, math.NaN(), wal.Config{}) })
	if err != nil {
		b.check(false, "mirror WAL recover: %v", err)
		return
	}
	defer log.Close()
	m.replayed = res.Replayed
	b.check(res.Seq == m.seq, "mirror WAL recovered epoch %d, want %d", res.Seq, m.seq)
	b.check(sameRoles(res.State, server), "recovered mirror roles or positions differ from the server's")
	if err := sameStructures(res.State, server); err != nil {
		b.check(false, "recovered mirror vs server: %v", err)
	}
}

func sameRoles(a, b *maintain.State) bool {
	aa, as := a.Roles()
	ba, bs := b.Roles()
	pa, pb := a.Positions(), b.Positions()
	if len(pa) != len(pb) || !slices.Equal(aa, ba) || !slices.Equal(as, bs) {
		return false
	}
	for i := range pa {
		if math.Float64bits(pa[i].X) != math.Float64bits(pb[i].X) || math.Float64bits(pa[i].Y) != math.Float64bits(pb[i].Y) {
			return false
		}
	}
	return true
}

// record turns the mirror's counters and spans into per-layer metrics.
func (m *mirror) record() {
	L, tr := m.b.layer, m.b.tr
	for _, name := range []string{
		"maintain.apply_batch", "maintain.clustering", "maintain.patch", "maintain.rebuild",
		"connector.build", "ldel.build", "graph.components", "graph.snapshot", "routing.router",
		"wal.append", "wal.compact", "wal.recover",
	} {
		L[name+"_ms"] = tr.medianMS(name)
	}
	ep := float64(max(m.epochs, 1))
	L["maintain.patched_frac"] = float64(m.patched) / ep
	L["maintain.scope_fallbacks"] = float64(m.scopeFallbacks)
	L["maintain.rejected_frac"] = float64(m.rejected) / float64(max(m.events, 1))
	L["maintain.role_changes_per_epoch"] = float64(m.roleChanges) / ep
	L["connector.keys"] = float64(m.keys)
	L["ldel.triangles"] = float64(m.triangles)
	L["serve.publish_ms"] = meanInt(m.publish) / 1e6
	L["serve.alloc_mb_per_epoch"] = meanInt(m.alloc) / (1 << 20)
	L["wal.bytes_per_epoch"] = meanInt(m.walBytes)
	L["wal.retained_kb"] = float64(m.log.Stats().RetainedBytes) / 1024
	L["wal.replayed"] = float64(m.replayed)
}

func meanInt[T int64 | uint64](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// stageResult is the distributed construction run one stage at a time.
type stageResult struct {
	pldel  *graph.Graph
	rounds [3]int // cluster, connector, LDel
	msgs   [3]int
	total  int // every message, as Build's MsgsLDel counts them
}

// stageBuild runs the three protocols Build runs, with Build's default
// options, each inside its own span.
func (b *bench) stageBuild(parent, op int64, g *graph.Graph, radius float64) (*stageResult, error) {
	var cl *cluster.Result
	var conn *connector.Result
	var ld *ldel.Result
	var nets [3]*sim.Network
	var err error
	b.timed("cluster.run", parent, op, func() { cl, nets[0], err = cluster.Run(g, 0) })
	if err != nil {
		return nil, err
	}
	b.timed("connector.run", parent, op, func() { conn, nets[1], err = connector.Run(g, cl, 0) })
	if err != nil {
		return nil, err
	}
	b.timed("ldel.run", parent, op, func() { ld, nets[2], err = ldel.Run(conn.ICDS, conn.InBackbone, radius, 0) })
	if err != nil {
		return nil, err
	}
	// Build also charges every node one beacon and one role announcement.
	r := &stageResult{pldel: ld.PLDel, total: 2 * g.N()}
	for i, net := range nets {
		r.rounds[i] = net.Rounds()
		r.msgs[i] = net.TotalSent()
		r.total += r.msgs[i]
	}
	return r, nil
}

// recordStages turns stage-by-stage builds of n-node networks into
// per-layer metrics.
func (b *bench) recordStages(rs []*stageResult, n int) {
	L := b.layer
	for _, name := range []string{"cluster.run", "connector.run", "ldel.run"} {
		L[name+"_ms"] = b.tr.medianMS(name)
	}
	for i, stage := range []string{"cluster", "connector", "ldel"} {
		var rounds, msgs []float64
		for _, r := range rs {
			rounds = append(rounds, float64(r.rounds[i]))
			msgs = append(msgs, float64(r.msgs[i])/float64(n))
		}
		L["sim.rounds."+stage] = median(rounds)
		L["sim.msgs_per_node."+stage] = median(msgs)
	}
	var total []float64
	for _, r := range rs {
		total = append(total, float64(r.total)/float64(n))
	}
	L["sim.msgs_per_node"] = median(total)
}

// perLayerUnits lists every per-layer metric with its unit, in the order
// BENCHMARK.json declares them.
var perLayerUnits = []struct{ name, unit string }{
	{"maintain.apply_batch_ms", "ms"},
	{"maintain.clustering_ms", "ms"},
	{"maintain.patch_ms", "ms"},
	{"maintain.rebuild_ms", "ms"},
	{"maintain.patched_frac", "ratio"},
	{"maintain.scope_fallbacks", "count"},
	{"maintain.rejected_frac", "ratio"},
	{"maintain.role_changes_per_epoch", "count"},
	{"connector.build_ms", "ms"},
	{"connector.keys", "count"},
	{"ldel.build_ms", "ms"},
	{"ldel.triangles", "count"},
	{"graph.components_ms", "ms"},
	{"graph.snapshot_ms", "ms"},
	{"routing.router_ms", "ms"},
	{"serve.publish_ms", "ms"},
	{"serve.alloc_mb_per_epoch", "MiB"},
	{"routing.hops_mean", "count"},
	{"serve.http_route_overhead_us", "us"},
	{"wal.append_ms", "ms"},
	{"wal.compact_ms", "ms"},
	{"wal.bytes_per_epoch", "bytes"},
	{"wal.retained_kb", "KiB"},
	{"wal.recover_ms", "ms"},
	{"wal.replayed", "count"},
	{"cluster.run_ms", "ms"},
	{"connector.run_ms", "ms"},
	{"ldel.run_ms", "ms"},
	{"sim.rounds.cluster", "count"},
	{"sim.rounds.connector", "count"},
	{"sim.rounds.ldel", "count"},
	{"sim.msgs_per_node.cluster", "count"},
	{"sim.msgs_per_node.connector", "count"},
	{"sim.msgs_per_node.ldel", "count"},
	{"sim.msgs_per_node", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// perLayer assembles the traced run's metrics.
func (b *bench) perLayer() map[string]metric {
	L := b.layer
	L["routing.hops_mean"] = float64(b.reads.hops) / float64(max(len(b.reads.lat), 1))
	// Tracing overhead: what the traced client spent on mirrored and
	// stage-by-stage calls, relative to the operations it measured.
	extra := b.tr.sumByOp("epoch")
	ops := b.tr.sumByOp("serve.apply", "serve.post_epoch", "serve.tail_apply", "build.build")
	var sumExtra, sumOps time.Duration
	for op, d := range extra {
		sumExtra += d - ops[op]
		sumOps += ops[op]
	}
	L["trace.overhead_pct"] = 100 * sumExtra.Seconds() / max(sumOps.Seconds(), 1e-9)
	L["trace.spans"] = float64(len(b.tr.spans))
	out := make(map[string]metric, len(perLayerUnits))
	for _, pl := range perLayerUnits {
		v, ok := L[pl.name]
		if !ok {
			panic(fmt.Sprintf("per-layer metric %s was not recorded", pl.name))
		}
		out[pl.name] = metric{v, pl.unit}
	}
	return out
}
