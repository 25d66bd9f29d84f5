package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"geospanner/internal/graph"
	"geospanner/internal/obs"
	"geospanner/internal/sim"
	"geospanner/internal/udg"
)

// stripShardLines removes the executor's events — per-shard load reports
// and re-partitioning notices — from a JSONL trace. Executor events
// describe the machine (shard count, boundaries, wall time), not the
// protocol, so they are the one part of a traced run excluded from the
// cross-kernel-configuration determinism contract.
func stripShardLines(t *testing.T, trace []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, line := range bytes.Split(trace, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		e, err := obs.DecodeJSONL(line, true)
		if err != nil {
			t.Fatalf("trace line fails strict schema: %v", err)
		}
		if obs.ExecutorKind(e.Kind) {
			continue
		}
		out.Write(line)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// tracedBuild runs one build with a byte-exact JSONL sink (wall times
// omitted) and returns the result (nil on failure), the build error text
// (a wedged lossy run fails deterministically — the error is part of the
// contract), and the protocol-level trace.
func tracedBuild(t *testing.T, seed int64, n int, opts ...BuildOption) (*Result, string, []byte) {
	t.Helper()
	inst, err := udg.ConnectedInstance(seed, n, 200, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	sink.OmitWall = true
	res, err := Build(inst.UDG, inst.Radius, append(opts, WithTracer(sink))...)
	errText := ""
	if err != nil {
		errText = err.Error()
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, errText, stripShardLines(t, buf.Bytes())
}

// buildGolden renders one traced build in the frozen-reference format of
// ../sim/testdata/sequential: the error text, the round counts, digests of
// both output graphs' edge lists, the message ledger, the Reliable shim's
// counters, and the line count and digest of the protocol-level trace.
func buildGolden(res *Result, errText string, trace []byte) string {
	var b strings.Builder
	fmt.Fprintf(&b, "err %q\n", errText)
	if res != nil {
		fmt.Fprintf(&b, "rounds %+v\n", res.Rounds)
		for _, g := range []struct {
			name string
			g    *graph.Graph
		}{{"ldel_icds", res.LDelICDS}, {"ldel_icds_prime", res.LDelICDSPrime}} {
			fmt.Fprintf(&b, "%s %d sha256:%x\n", g.name, g.g.NumEdges(), sha256.Sum256([]byte(fmt.Sprint(g.g.Edges()))))
		}
		fmt.Fprintf(&b, "per_node %v\nby_type %v\nreliable %+v\n", res.MsgsLDel.PerNode, res.MsgsLDel.ByType, res.Reliable)
	}
	fmt.Fprintf(&b, "trace %d sha256:%x\n", bytes.Count(trace, []byte("\n")), sha256.Sum256(trace))
	return b.String()
}

// sequentialGolden reads a frozen reference output of the retired
// sequential delivery loop. The files live with the simulator, were
// recorded once from that kernel, and are never regenerated.
func sequentialGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "sim", "testdata", "sequential", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// matrixFaults are the fault models of TestShardMatrixDeterminism,
// constructed fresh per build: Gilbert is stateful and must not be shared
// across runs.
var matrixFaults = []struct {
	name string
	opt  func() BuildOption
}{
	{"bernoulli", func() BuildOption { return WithFaults(sim.Bernoulli(99, 0.15)) }},
	{"gilbert", func() BuildOption { return WithFaults(sim.Gilbert(41, 0.2, 0.5, 0.8)) }},
}

// matrixOptions returns the base options of one matrix case.
func matrixOptions(fault func() BuildOption, reliable bool) []BuildOption {
	opts := []BuildOption{fault(), WithMaxRounds(3000)}
	if reliable {
		opts = append(opts, WithReliability(sim.ReliableConfig{}))
	}
	return opts
}

// TestShardMatrixDeterminism is the determinism-under-composition matrix:
// the default configuration and every combination of {shards 1, 2, 4, 8}
// × {parallelism 1, 2, NumCPU} × {Reliable on/off} × {Bernoulli, Gilbert}
// must reproduce the Result, error and JSONL protocol trace the retired
// sequential kernel recorded for the same fixed seed. Parallelism values
// are forced explicitly because on a single-core runner the GOMAXPROCS
// default would collapse every cell to a serial pool.
func TestShardMatrixDeterminism(t *testing.T) {
	for _, fault := range matrixFaults {
		for _, reliable := range []bool{false, true} {
			name := fault.name
			if reliable {
				name += "+reliable"
			}
			t.Run(name, func(t *testing.T) {
				want := sequentialGolden(t, "build_"+name+"_seed21_n40")
				check := func(label string, extra ...BuildOption) {
					t.Helper()
					got := buildGolden(tracedBuild(t, 21, 40, append(matrixOptions(fault.opt, reliable), extra...)...))
					if got != want {
						t.Fatalf("%s: build diverges from the sequential reference\ngot:\n%swant:\n%s", label, got, want)
					}
				}
				check("default")
				// par=2 forces the worker pool even on a single-core
				// runner; NumCPU adds the real-hardware width elsewhere.
				pars := []int{1, 2}
				if c := runtime.NumCPU(); c > 2 {
					pars = append(pars, c)
				}
				for _, p := range []int{1, 2, 4, 8} {
					for _, k := range pars {
						check(fmt.Sprintf("shards=%d/par=%d", p, k), WithShards(p), WithParallelism(k))
					}
				}
			})
		}
	}
}

// TestShardGoldenTraceUnchanged replays the pinned golden JSONL trace
// under the sharded kernel: the protocol-level stream must match the
// committed golden byte for byte, without regenerating it.
func TestShardGoldenTraceUnchanged(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "trace_seed3_n12.golden.jsonl"))
	if err != nil {
		t.Fatalf("missing golden trace: %v", err)
	}
	inst, err := udg.ConnectedInstance(3, 12, 100, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 8} {
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		sink.OmitWall = true
		if _, err := Build(inst.UDG.Clone(), inst.Radius, WithShards(p), WithTracer(sink)); err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		got := stripShardLines(t, buf.Bytes())
		if !bytes.Equal(got, want) {
			t.Fatalf("shards=%d: sharded trace diverges from the sequential golden", p)
		}
	}
}

// TestShardPartialBuild: the kernel composes with the partition-aware
// build — per-component pipelines run sharded (remapped faults included)
// and every shard count reproduces the partial result the retired
// sequential kernel recorded.
func TestShardPartialBuild(t *testing.T) {
	want := sequentialGolden(t, "partial_seed13_n60")
	for _, p := range []int{0, 2, 8} {
		if got := partialGolden(t, WithShards(p)); got != want {
			t.Fatalf("shards=%d: partial build diverges from the sequential reference\ngot:\n%swant:\n%s", p, got, want)
		}
	}
}

// partialGolden runs a partial build with one crashed node — forcing the
// partition machinery into play — and renders it in the reference format
// plus the health report's dead set.
func partialGolden(t *testing.T, opts ...BuildOption) string {
	t.Helper()
	inst, err := udg.ConnectedInstance(13, 60, 200, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	crash := sim.CrashAt(map[int]int{5: 1})
	base := []BuildOption{WithPartialResults(), WithMaxRounds(2000), WithFaults(crash),
		WithReliability(sim.ReliableConfig{MaxRetries: 3})}
	res, err := Build(inst.UDG, inst.Radius, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Health == nil {
		t.Fatal("partial build returned no health report")
	}
	return buildGolden(res, "", nil) + fmt.Sprintf("dead %v\n", res.Health.DeadNodes)
}
