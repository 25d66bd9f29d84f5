package sim

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"geospanner/internal/geom"
	"geospanner/internal/graph"
	"geospanner/internal/obs"
)

// skewProto concentrates traffic in the nodes marked hot: each hot node
// broadcasts every round for a fixed stretch, so contiguous uniform
// shards see a 4:1 (or worse) load imbalance the re-partitioner must fix.
type skewProto struct {
	hot    bool
	rounds int
}

type skewMsg struct{}

func (skewMsg) Type() string { return "skew" }

func (p *skewProto) Init(ctx *Context) {
	if p.hot {
		ctx.Broadcast(skewMsg{})
	}
}

func (p *skewProto) Handle(ctx *Context, from int, m Message) {}

func (p *skewProto) Tick(ctx *Context, round int) {
	if p.hot && p.rounds < 40 {
		p.rounds++
		ctx.Broadcast(skewMsg{})
	}
}

func (p *skewProto) Done() bool { return !p.hot || p.rounds >= 40 }

// gridGraph builds a k×k grid UDG (radius just over 1), a connected,
// moderately dense topology with nodes of unequal degree — corner nodes
// have 2 neighbors, interior nodes 4 — so shard boundaries cut real edges.
func gridGraph(k int) *graph.Graph {
	pts := make([]geom.Point, 0, k*k)
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			pts = append(pts, geom.Pt(float64(x), float64(y)))
		}
	}
	g := graph.New(pts)
	id := func(x, y int) int { return y*k + x }
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			if x+1 < k {
				g.AddEdge(id(x, y), id(x+1, y))
			}
			if y+1 < k {
				g.AddEdge(id(x, y), id(x, y+1))
			}
		}
	}
	return g
}

// echoProto floods, emits a state transition on first hearing, and echoes
// a bounded number of replies — enough protocol activity (multi-round
// traffic, state events, per-type counters) to make equivalence tests
// meaningful.
type echoMsg struct{ hops int }

func (echoMsg) Type() string { return "echo" }

type echoProto struct {
	id      int
	started bool
	heard   bool
	replies int
	history []int // (from, hops) pairs, flattened, in delivery order
}

func (p *echoProto) Init(ctx *Context) {
	if p.started {
		p.heard = true
		ctx.EmitState("origin")
		ctx.Broadcast(echoMsg{hops: 0})
	}
}

func (p *echoProto) Handle(ctx *Context, from int, m Message) {
	e := m.(echoMsg)
	p.history = append(p.history, from, e.hops)
	if !p.heard {
		p.heard = true
		ctx.EmitState("reached")
		ctx.Broadcast(echoMsg{hops: e.hops + 1})
	}
}

func (p *echoProto) Tick(ctx *Context, round int) {
	if p.heard && p.replies < 2 && round%2 == 0 {
		p.replies++
		ctx.Broadcast(echoMsg{hops: -p.replies})
	}
}

func (p *echoProto) Done() bool { return !p.started || p.replies >= 2 }

// runEcho executes the echo protocol on a grid with the given options and
// returns everything observable: counters, round trace, per-node delivery
// histories, and the full protocol-level event stream as OmitWall JSONL
// (executor shard events stripped).
type echoRun struct {
	rounds    int
	err       string
	sent      []int
	byType    map[string]int
	trace     []RoundStats
	histories [][]int
	events    []byte
	shards    int
}

func runEcho(t *testing.T, k int, opts ...Option) echoRun {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	sink.OmitWall = true
	protocolOnly := obs.Func(func(e obs.Event) {
		if !obs.ExecutorKind(e.Kind) {
			sink.Emit(e)
		}
	})
	g := gridGraph(k)
	opts = append(opts, WithTracer(protocolOnly), WithStage("echo"))
	net := NewNetwork(g, func(id int) Protocol {
		return &echoProto{id: id, started: id%7 == 0}
	}, opts...)
	rounds, err := net.Run(200)
	if ferr := sink.Flush(); ferr != nil {
		t.Fatal(ferr)
	}
	out := echoRun{
		rounds: rounds,
		sent:   net.SentAll(),
		byType: net.SentByType(),
		trace:  net.Trace(),
		events: buf.Bytes(),
		shards: net.ShardsUsed(),
	}
	if err != nil {
		out.err = err.Error()
	}
	for id := 0; id < g.N(); id++ {
		out.histories = append(out.histories, net.Protocol(id).(*echoProto).history)
	}
	return out
}

// golden renders a run in the frozen-reference format of
// testdata/sequential: small observables verbatim, the delivery histories
// and the event stream as SHA-256 digests.
func (r echoRun) golden() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds %d\nerr %q\nsent %v\nbytype %v\ntrace", r.rounds, r.err, r.sent, r.byType)
	for _, s := range r.trace {
		fmt.Fprintf(&b, " %d:%d:%d", s.Round, s.Delivered, s.Sent)
	}
	var h strings.Builder
	for id, hist := range r.histories {
		fmt.Fprintf(&h, "%d %v\n", id, hist)
	}
	fmt.Fprintf(&b, "\nhistories sha256:%x\nevents %d sha256:%x\n",
		sha256.Sum256([]byte(h.String())), bytes.Count(r.events, []byte("\n")), sha256.Sum256(r.events))
	return b.String()
}

// sequentialGolden reads a frozen reference output of the retired
// sequential delivery loop. These files were recorded once from that
// kernel and are never regenerated: they are the data the one remaining
// kernel is held to.
func sequentialGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "sequential", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// matchGolden fails with the first divergent line when got != want.
func matchGolden(t *testing.T, label, want, got string) {
	t.Helper()
	if got == want {
		return
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Fatalf("%s: diverges at line %d\ngot:  %s\nwant: %s", label, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", label, len(gl), len(wl))
}

// equivalenceCases are the fault/reliability configurations of
// TestShardEquivalence. Options are factories: Gilbert (and any stateful
// model) must be constructed fresh per run, or earlier runs' chain state
// leaks into later ones.
var equivalenceCases = []struct {
	name string
	opts func() []Option
}{
	{"plain", func() []Option { return nil }},
	{"bernoulli", func() []Option { return []Option{WithFaults(Bernoulli(42, 0.2))} }},
	{"gilbert", func() []Option { return []Option{WithFaults(Gilbert(7, 0.3, 0.5, 0.9))} }},
	{"compose", func() []Option { return []Option{WithFaults(Compose(Bernoulli(1, 0.1), Duplicate(2, 0.2)))} }},
	{"crash", func() []Option { return []Option{WithFaults(CrashAt(map[int]int{3: 4, 11: 2}))} }},
	{"reliable+bernoulli", func() []Option {
		return []Option{WithReliability(ReliableConfig{}), WithFaults(Bernoulli(9, 0.25))}
	}},
	{"reliable+gilbert", func() []Option {
		return []Option{WithReliability(ReliableConfig{}), WithFaults(Gilbert(5, 0.2, 0.6, 0.8))}
	}},
}

// TestShardEquivalence pins the kernel's determinism contract against
// data: every (shards, parallelism, re-partitioning) cell, and the
// default configuration, must reproduce byte for byte what the retired
// sequential delivery loop recorded in testdata/sequential — counters,
// round trace, per-receiver delivery order, protocol event stream — with
// and without faults and the Reliable shim.
func TestShardEquivalence(t *testing.T) {
	// Explicit worker counts, not just NumCPU: on a single-core runner the
	// default would collapse to 1 and never exercise the pool.
	pars := []int{1, 2, runtime.NumCPU()}
	for _, tc := range equivalenceCases {
		t.Run(tc.name, func(t *testing.T) {
			want := sequentialGolden(t, "echo_"+tc.name)
			def := runEcho(t, 6, tc.opts()...)
			if def.shards != 1 {
				t.Fatalf("default run reported %d shards, want 1", def.shards)
			}
			matchGolden(t, "default", want, def.golden())
			for _, p := range []int{1, 2, 4, 8} {
				for _, k := range pars {
					opts := append(tc.opts(), WithShards(p), WithParallelism(k))
					got := runEcho(t, 6, opts...)
					if got.shards != p {
						t.Fatalf("p=%d/par=%d: ShardsUsed = %d", p, k, got.shards)
					}
					matchGolden(t, fmt.Sprintf("p=%d/par=%d", p, k), want, got.golden())
				}
				// Re-partition every other round, in parallel: boundaries
				// move mid-flight (staged copies cross old→new ranges) and
				// per-link fault state migrates — still bit-identical.
				opts := append(tc.opts(), WithShards(p), WithParallelism(2), WithRepartition(2))
				matchGolden(t, fmt.Sprintf("p=%d/repart=2", p), want, runEcho(t, 6, opts...).golden())
			}
		})
	}
}

// TestShardRepartitionMoves pins the re-partitioning machinery itself: a
// deliberately skewed load (only the top quarter of the ID space chatters)
// must move the uniform boundaries toward the hot range, emit one
// obs.KindRepartition event per shard covering the whole ID space, and
// still finish bit-identical to the one-shard run.
func TestShardRepartitionMoves(t *testing.T) {
	const n, shards = 64, 4
	mk := func(opts ...Option) (*Network, *obs.Ring) {
		ring := obs.NewRing(1 << 20)
		g := pathGraph(n)
		net := NewNetwork(g, func(id int) Protocol {
			return &skewProto{hot: id >= 3*n/4}
		}, append(opts, WithTracer(ring))...)
		return net, ring
	}
	one, _ := mk()
	if _, err := one.Run(0); err != nil {
		t.Fatal(err)
	}
	net, ring := mk(WithShards(shards), WithParallelism(2), WithRepartition(4))
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.SentAll(), net.SentAll()) {
		t.Fatal("skewed repartitioned run diverges from the one-shard counters")
	}
	var reparts []obs.Event
	for _, e := range ring.Events() {
		if e.Kind == obs.KindRepartition {
			reparts = append(reparts, e)
		}
	}
	if len(reparts) == 0 {
		t.Fatal("no repartition events despite skewed load and period 4")
	}
	if len(reparts)%shards != 0 {
		t.Fatalf("%d repartition events, want a multiple of %d", len(reparts), shards)
	}
	// Each batch of `shards` events describes one complete new partition.
	moved := false
	for i := 0; i < len(reparts); i += shards {
		nodes := 0
		for s := 0; s < shards; s++ {
			e := reparts[i+s]
			if e.From != s {
				t.Fatalf("repartition event %d has From=%d, want shard %d", i+s, e.From, s)
			}
			nodes += e.N
			if e.N != n/shards {
				moved = true
			}
		}
		if nodes != n {
			t.Fatalf("repartition batch covers %d nodes, want %d", nodes, n)
		}
	}
	if !moved {
		t.Fatal("boundaries never left the uniform split despite 4:1 load skew")
	}
	// The hot quarter must end up spread over more than one shard: the
	// last batch's final shard should own fewer nodes than uniform.
	last := reparts[len(reparts)-shards:]
	if last[shards-1].N >= n/shards {
		t.Fatalf("hottest shard still owns %d nodes after rebalance (uniform is %d)",
			last[shards-1].N, n/shards)
	}
}

// TestShardClampsToNodeCount: more shards than nodes degrades to one node
// per shard, still bit-identical.
func TestShardClampsToNodeCount(t *testing.T) {
	one := runEcho(t, 2)
	got := runEcho(t, 2, WithShards(64))
	if got.shards != 4 {
		t.Fatalf("ShardsUsed = %d, want clamp to 4 nodes", got.shards)
	}
	matchGolden(t, "clamped", one.golden(), got.golden())
}

// TestShardUnshardableModelOneShard: a fault model without ShardFaults
// cannot be split into per-shard instances, so a multi-shard request runs
// on one shard consulting the model itself — with output identical to
// the default run.
func TestShardUnshardableModelOneShard(t *testing.T) {
	run := func(opts ...Option) *Network {
		net := NewNetwork(pathGraph(3), func(id int) Protocol {
			return &flooder{id: id, started: id == 0}
		}, append(opts, WithFaults(cutLink{from: 1, to: 2}))...)
		if _, err := net.Run(0); err != nil {
			t.Fatal(err)
		}
		return net
	}
	want, got := run(), run(WithShards(4))
	if got.ShardsUsed() != 1 {
		t.Fatalf("ShardsUsed = %d, want 1", got.ShardsUsed())
	}
	if got.Protocol(2).(*flooder).heard {
		t.Fatal("node 2 heard the flood through a dropped link")
	}
	if !reflect.DeepEqual(got.SentAll(), want.SentAll()) || !reflect.DeepEqual(got.Trace(), want.Trace()) {
		t.Fatal("one-shard fallback diverges from the default run")
	}
}

// TestShardMetricsEmitted: a traced sharded run reports one KindShard
// event per shard with the node partition and a warm mailbox pool.
func TestShardMetricsEmitted(t *testing.T) {
	ring := obs.NewRing(1 << 20)
	g := gridGraph(6)
	net := NewNetwork(g, func(id int) Protocol {
		return &echoProto{id: id, started: id%7 == 0}
	}, WithShards(4), WithTracer(ring), WithStage("echo"))
	if _, err := net.Run(200); err != nil {
		t.Fatal(err)
	}
	var shardEvents []obs.Event
	for _, e := range ring.Events() {
		if e.Kind == obs.KindShard {
			shardEvents = append(shardEvents, e)
		}
	}
	if len(shardEvents) != 4 {
		t.Fatalf("got %d shard events, want 4", len(shardEvents))
	}
	nodes, hits := 0, 0
	for i, e := range shardEvents {
		if e.From != i {
			t.Fatalf("shard event %d has From=%d", i, e.From)
		}
		nodes += e.N
		hits += e.Sent
	}
	if nodes != g.N() {
		t.Fatalf("shard events cover %d nodes, want %d", nodes, g.N())
	}
	// The echo run lasts many rounds; after the first round every mailbox
	// should come from the free list.
	if hits == 0 {
		t.Fatal("mailbox pool recorded no hits over a multi-round run")
	}
}

// TestShardQuiescenceError: a multi-shard run surfaces the same
// diagnostic QuiescenceError on any shard count.
func TestShardQuiescenceError(t *testing.T) {
	g := pathGraph(4)
	net := NewNetwork(g, func(id int) Protocol { return chatter{} }, WithShards(2))
	_, err := net.Run(10)
	if !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("err = %v, want ErrNotQuiescent", err)
	}
	if net.Rounds() != 10 {
		t.Fatalf("Rounds = %d, want 10", net.Rounds())
	}
}

// TestShardFaultModels pins shardFaultModels' support matrix.
func TestShardFaultModels(t *testing.T) {
	shardable := []FaultModel{
		nil,
		Bernoulli(1, 0.5),
		Gilbert(1, 0.1, 0.5, 0.9),
		CrashAt(map[int]int{0: 1}),
		Duplicate(1, 0.1),
		Compose(Bernoulli(1, 0.1), Duplicate(2, 0.1)),
		RemapFaults(Bernoulli(1, 0.1), []int{2, 0, 1}),
	}
	for i, fm := range shardable {
		fms, ok := shardFaultModels(fm, 3)
		if !ok || len(fms) != 3 {
			t.Fatalf("model %d: shardFaultModels = (%d, %v), want (3, true)", i, len(fms), ok)
		}
	}
	unshardable := []FaultModel{
		cutLink{from: 0, to: 1},
		Compose(Bernoulli(1, 0.1), cutLink{from: 0, to: 1}),
		RemapFaults(cutLink{from: 0, to: 1}, []int{0}),
	}
	for i, fm := range unshardable {
		if _, ok := shardFaultModels(fm, 3); ok {
			t.Fatalf("model %d: expected unshardable", i)
		}
	}
}
