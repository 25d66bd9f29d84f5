// Command spannerd is the long-lived topology service: it owns one live
// network instance, ingests churn batches over HTTP (one POST = one
// epoch), and serves route/topology/health queries against immutable
// per-epoch snapshots. It is a thin wrapper over the public geospanner
// server API — everything it does is available in process.
//
// Usage:
//
//	spannerd -n 500 -addr 127.0.0.1:7070        # serve until SIGINT/SIGTERM
//	spannerd -n 500 -data /var/lib/spannerd     # durable: WAL + crash recovery
//	spannerd -smoke -n 120 -epochs 8            # self-driven churn smoke, then exit
//	spannerd -smoke -data d -crash-after 5      # smoke, then die without shutdown
//	spannerd -recover-check -data d -epochs 5   # recover d, verify bit-exactness
//
// With -data, every epoch is appended to a write-ahead log before it is
// acknowledged; restarting spannerd on the same directory recovers the
// exact pre-crash topology and keeps serving. -recover-check is the
// verification half of the crash drill `make wal-smoke` runs: it recovers
// the directory, replays the same seeded schedule in process as a
// reference, and fails unless the recovered epoch's fingerprint matches
// the reference bit for bit.
//
// The instance is synthetic: n nodes uniform in a square region with a
// transmission radius that keeps the average degree near the paper's
// Table I density (override with -radius). In smoke mode the daemon binds
// an ephemeral port, drives a seeded churn schedule through its own HTTP
// API, asserts the health endpoint answers for the final epoch, and shuts
// down cleanly — the mode `make serve-smoke` and CI run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"geospanner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spannerd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("spannerd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7070", "HTTP listen address (smoke mode always uses an ephemeral port)")
		n          = fs.Int("n", 200, "nodes of the synthetic instance")
		region     = fs.Float64("region", 200, "side of the square deployment region")
		radius     = fs.Float64("radius", 0, "transmission radius (0 = keep average degree near 20)")
		seed       = fs.Int64("seed", 1, "instance and churn-schedule seed")
		data       = fs.String("data", "", "write-ahead log directory (empty = not durable)")
		walSegMB   = fs.Int64("wal-segment-bytes", 0, "rotate the active WAL segment at this many bytes (0 = default 4 MiB, <0 disables size rotation)")
		walSnapEvr = fs.Int("wal-snapshot-every", 0, "checkpoint and prune the WAL every k epochs (0 = default 64, <0 disables compaction)")
		smoke      = fs.Bool("smoke", false, "drive a short churn schedule through the HTTP API and exit")
		epochs     = fs.Int("epochs", 8, "epochs of the smoke schedule (and the expected recovered epoch of -recover-check; 0 skips that assertion)")
		batch      = fs.Int("batch", 15, "events per epoch of the smoke schedule")
		crashAfter = fs.Int("crash-after", 0, "in smoke mode, exit without shutdown after this epoch (simulates a crash; 0 = never)")
		recCheck   = fs.Bool("recover-check", false, "recover -data, verify it against an in-process replay of the seeded schedule, and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	r := *radius
	if r <= 0 {
		// Same constant-density rule as the experiment sweeps: average
		// degree ≈ n·π·r²/region² ≈ 20.
		r = *region * math.Sqrt(20.0/(math.Pi*float64(*n)))
	}

	walCfg := geospanner.WALConfig{SegmentBytes: *walSegMB, SnapshotEvery: *walSnapEvr}

	if *recCheck {
		return runRecoverCheck(out, *data, *seed, *n, *region, r, *epochs, *batch)
	}

	var (
		s   *geospanner.Server
		err error
	)
	switch {
	case *data != "" && geospanner.HasWAL(*data):
		if *smoke {
			return fmt.Errorf("refusing -smoke over the existing log in %s (the smoke schedule assumes a fresh instance)", *data)
		}
		var info geospanner.RecoverInfo
		s, info, err = geospanner.RecoverServer(*data, geospanner.WithWALTuning(*data, walCfg))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "spannerd: recovered epoch=%d (checkpoint=%d, replayed=%d, truncated=%dB) from %s\n",
			info.Seq, info.SnapshotSeq, info.Replayed, info.TruncatedBytes, *data)
	default:
		inst, ierr := geospanner.GenerateInstance(*seed, *n, *region, r)
		if ierr != nil {
			return fmt.Errorf("building instance: %w", ierr)
		}
		var opts []geospanner.ServerOption
		if *data != "" {
			opts = append(opts, geospanner.WithWALTuning(*data, walCfg))
		}
		s, err = geospanner.NewServer(inst.Points, r, opts...)
		if err != nil {
			return err
		}
		if *data != "" {
			fmt.Fprintf(out, "spannerd: logging epochs to %s\n", *data)
		}
	}

	listenAddr := *addr
	if *smoke {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(out, "spannerd: serving n=%d radius=%.1f on http://%s\n", s.Current().N(), r, ln.Addr())

	if *smoke {
		crashed, err := runSmoke(out, s, "http://"+ln.Addr().String(), *seed, *region, r, *epochs, *batch, *crashAfter)
		shutdownErr := shutdown(hs, serveErr)
		if err != nil {
			return err
		}
		if shutdownErr != nil {
			return shutdownErr
		}
		if crashed {
			// The crash drill: exit without closing the log, leaving the
			// directory exactly as a killed process would.
			fmt.Fprintln(out, "spannerd: crashed without shutdown (log left as-is)")
			return nil
		}
		if err := s.Close(); err != nil {
			return err
		}
		fmt.Fprintln(out, "spannerd: clean shutdown")
		return nil
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "spannerd: shutting down")
	if err := shutdown(hs, serveErr); err != nil {
		return err
	}
	if err := s.Close(); err != nil {
		return err
	}
	fmt.Fprintln(out, "spannerd: clean shutdown")
	return nil
}

// Connection timeouts of the HTTP server. The write timeout runs from the
// end of the request headers until the response is written, so it spans a
// whole POST /v1/epoch apply and must exceed the slowest epoch: about 10 s
// for a 10-event batch at n=10000 in results/churn.txt.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

func shutdown(hs *http.Server, serveErr chan error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// runSmoke drives a seeded churn schedule through the daemon's own HTTP
// API and asserts the service's answers: every epoch POST succeeds and
// advances the sequence, the health endpoint answers for the final epoch,
// and the stats endpoint accounts for every event. With crashAfter > 0 it
// stops mid-schedule and reports crashed=true, for the crash drill.
func runSmoke(out io.Writer, s *geospanner.Server, base string, seed int64, region, radius float64, epochs, batch, crashAfter int) (crashed bool, err error) {
	client := &http.Client{Timeout: 30 * time.Second}
	sched := geospanner.NewScheduler(seed+1, s.Current().UDG.Points(), region, radius)
	for e := 1; e <= epochs; e++ {
		body, err := json.Marshal(geospanner.EpochRequest{Events: geospanner.EncodeTopologyEvents(sched.Batch(batch))})
		if err != nil {
			return false, err
		}
		resp, err := client.Post(base+"/v1/epoch", "application/json", bytes.NewReader(body))
		if err != nil {
			return false, fmt.Errorf("smoke epoch %d: %w", e, err)
		}
		var er geospanner.EpochResponse
		decErr := json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if decErr != nil {
			return false, fmt.Errorf("smoke epoch %d: %w", e, decErr)
		}
		if resp.StatusCode != http.StatusOK || er.Epoch != uint64(e) {
			return false, fmt.Errorf("smoke epoch %d: status %d, response %+v", e, resp.StatusCode, er)
		}
		fmt.Fprintf(out, "smoke: epoch %d applied=%d rejected=%d roles=%d mode=%s\n",
			er.Epoch, er.Applied, er.Rejected, er.RoleChanges, er.Mode)
		if e == crashAfter {
			fmt.Fprintf(out, "smoke: crashing after epoch %d (fingerprint %016x)\n", e, s.Current().Fingerprint())
			return true, nil
		}
	}

	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return false, fmt.Errorf("smoke health: %w", err)
	}
	var hr geospanner.HealthResponse
	decErr := json.NewDecoder(resp.Body).Decode(&hr)
	resp.Body.Close()
	if decErr != nil {
		return false, fmt.Errorf("smoke health: %w", decErr)
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("smoke health: status %d", resp.StatusCode)
	}
	if hr.Epoch != uint64(epochs) || hr.Mode != "live" || hr.Components == 0 || hr.Alive == 0 {
		return false, fmt.Errorf("smoke health: implausible report %+v", hr)
	}
	fmt.Fprintf(out, "smoke: health epoch=%d alive=%d dead=%d components=%d healthy=%v\n",
		hr.Epoch, hr.Alive, hr.Dead, hr.Components, hr.Healthy)

	st := s.Stats()
	if st.Epochs != int64(epochs) || st.Applied+st.Rejected != st.Events {
		return false, fmt.Errorf("smoke stats: inconsistent %+v", st)
	}
	fmt.Fprintf(out, "smoke: %d epochs, %d/%d events applied, recompute_ratio=%.2f patched=%d patch_fallbacks=%d\n",
		st.Epochs, st.Applied, st.Events, st.RecomputeRatio, st.PatchedEpochs, st.PatchFallbacks)
	kinds := make([]string, 0, len(st.ByKind))
	for k := range st.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		kc := st.ByKind[k]
		fmt.Fprintf(out, "smoke: kind %-10s applied=%d rejected=%d\n", k, kc.Applied, kc.Rejected)
	}
	return false, nil
}

// runRecoverCheck recovers the log in dir and verifies the recovery is
// bit-exact: it rebuilds the same seeded instance, replays the same seeded
// schedule through a fresh in-process server — the reference an uncrashed
// spannerd would have reached — and compares epoch fingerprints (positions,
// liveness, roles, and both edge sets, bit for bit).
func runRecoverCheck(out io.Writer, dir string, seed int64, n int, region, radius float64, epochs, batch int) error {
	if dir == "" {
		return errors.New("-recover-check needs -data")
	}
	rec, info, err := geospanner.RecoverServer(dir)
	if err != nil {
		return err
	}
	defer rec.Close()
	fmt.Fprintf(out, "recover-check: recovered epoch=%d (checkpoint=%d, replayed=%d, truncated=%dB)\n",
		info.Seq, info.SnapshotSeq, info.Replayed, info.TruncatedBytes)
	if epochs > 0 && info.Seq != uint64(epochs) {
		return fmt.Errorf("recover-check: recovered epoch %d, want %d — the log lost acknowledged epochs", info.Seq, epochs)
	}

	inst, err := geospanner.GenerateInstance(seed, n, region, radius)
	if err != nil {
		return fmt.Errorf("recover-check: rebuilding instance: %w", err)
	}
	ref, err := geospanner.NewServer(inst.Points, radius)
	if err != nil {
		return err
	}
	sched := geospanner.NewScheduler(seed+1, inst.Points, region, radius)
	for e := uint64(1); e <= info.Seq; e++ {
		if _, err := ref.Apply(sched.Batch(batch)); err != nil {
			return fmt.Errorf("recover-check: reference epoch %d: %w", e, err)
		}
	}

	got, want := rec.Current().Fingerprint(), ref.Current().Fingerprint()
	if got != want {
		return fmt.Errorf("recover-check: fingerprint %016x, reference %016x — recovery is not bit-exact", got, want)
	}
	fmt.Fprintf(out, "recover-check: ok — epoch %d fingerprint %016x matches the uncrashed reference\n", info.Seq, got)
	return nil
}
