package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	gs "geospanner"
	"geospanner/internal/routing"
)

// The build-2k workload: geospanner.Build with the facade defaults on
// fresh connected instances seeded seed, seed+1, …, one build client.
const (
	buildN = 2000
	// buildPool is how many instances setup generates; the run generates
	// more, outside the timed builds, if it gets through the pool.
	buildPool = 16
	// routesPerBuild routes are issued with RouteViaBackbone on each
	// built backbone, the read side of the workload.
	routesPerBuild = 128
	// tailEpochs is the churn each handed-off network takes before it is
	// abandoned, so recover_s replays a log.
	tailEpochs = 8
	// handoffs is how many of the pool's networks are handed off to a
	// durable server; recovery samples cycle through them, because the
	// cost of a cold n=2000 build varies by instance as much as the host
	// varies between runs.
	handoffs = 3
)

func runBuild(b *bench) error {
	radius := radiusFor(buildN)
	setup := b.tr.begin("setup", b.root, b.nextOp())
	var pool []*gs.Instance
	var err error
	b.setupS, err = repeat(minRepeatTime, func(int) (time.Duration, error) {
		pool = pool[:0]
		var err error
		d := b.timed("udg.generate", setup, 0, func() {
			for i := range buildPool {
				var inst *gs.Instance
				if inst, err = gs.GenerateInstance(b.seed+int64(i), buildN, region, radius); err != nil {
					return
				}
				pool = append(pool, inst)
			}
		})
		return d, err
	})
	if err != nil {
		return err
	}
	b.measureHeap()
	b.tr.end(setup)
	var hs []*handoffServer
	for k := range handoffs {
		h, err := b.handoff(k, pool[k], radius)
		if err != nil {
			return err
		}
		hs = append(hs, h)
	}

	window := b.tr.begin("window", b.root, 0)
	rng := rand.New(rand.NewSource(b.seed + 2))
	var stages []*stageResult
	var built []*gs.Result
	var msgs []float64
	deadline := time.Now().Add(b.window)
	for i := 0; time.Now().Before(deadline); i++ {
		inst, err := poolInstance(pool, b.seed, i, radius)
		if err != nil {
			return err
		}
		op := b.nextOp()
		build := b.tr.begin("epoch", window, op)
		var res *gs.Result
		runtime.GC()
		d := b.timed("build.build", build, op, func() { res, err = gs.Build(inst.UDG, radius) })
		b.writes.busy += d
		if err != nil {
			b.writes.fail()
			b.note("build %d failed: %v", i, err)
			b.tr.end(build)
			continue
		}
		b.writes.ok(d)
		b.writes.items += buildN
		msgs = append(msgs, float64(res.MsgsLDel.Total())/buildN)
		if b.tr != nil {
			sr, err := b.stageBuild(build, op, inst.UDG, radius)
			if err != nil {
				return err
			}
			b.check(sr.pldel.Equal(res.LDelICDS) && sr.total == res.MsgsLDel.Total(),
				"stage-by-stage build %d differs from Build (messages %d vs %d)", i, sr.total, res.MsgsLDel.Total())
			stages = append(stages, sr)
		}
		b.tr.end(build)
		runtime.GC()
		b.routeBackbone(rng, res)
		built = append(built, res)
		if err := b.recoverHandoff(hs); err != nil {
			return err
		}
	}
	b.tr.end(window)
	for len(b.recoverS) < max(minRepeats, handoffs) {
		if err := b.recoverHandoff(hs); err != nil {
			return err
		}
	}
	// Every other build is checked, after the window, so the window holds
	// builds and routes only.
	for i := 0; i < len(built); i += 2 {
		res := built[i]
		b.timed("check.centralized", b.root, 0, func() {
			cen, err := gs.BuildCentralized(res.UDG, radius)
			b.check(err == nil && cen.LDelICDS.Equal(res.LDelICDS), "Build %d differs from BuildCentralized on LDelICDS (%v)", i, err)
		})
	}
	if b.writes.attempted == 0 {
		return fmt.Errorf("no build finished in the window")
	}
	b.note("builds: %d, messages per node %.4f (median)", len(b.writes.lat), median(msgs))
	if b.tr != nil {
		b.recordStages(stages, buildN)
	}
	return nil
}

// recoverHandoff takes one recover_s sample, of the next abandoned
// handoff server in turn. The samples are spread across the window,
// between builds, so their median does not hang on a single stretch of
// host speed.
func (b *bench) recoverHandoff(hs []*handoffServer) error {
	h := hs[len(b.recoverS)%len(hs)]
	runtime.GC()
	d, err := h.s.recoverOnce(h.live, h.fp)
	if err != nil {
		b.check(false, "recover: %v", err)
		return err
	}
	b.recoverS = append(b.recoverS, d.Seconds())
	return nil
}

// poolInstance returns instance i of the run: from the setup pool, or
// generated now for runs that outlast it.
func poolInstance(pool []*gs.Instance, seed int64, i int, radius float64) (*gs.Instance, error) {
	if i < len(pool) {
		return pool[i], nil
	}
	return gs.GenerateInstance(seed+int64(i), buildN, region, radius)
}

// routeBackbone routes random pairs across a built backbone through the
// public RouteViaBackbone and validates every path.
func (b *bench) routeBackbone(rng *rand.Rand, res *gs.Result) {
	n := res.UDG.N()
	for range routesPerBuild {
		src, dst, ok := alivePair(rng, n, func(int) bool { return true })
		if !ok {
			continue
		}
		t := time.Now()
		path, err := gs.RouteViaBackbone(res, src, dst)
		d := time.Since(t)
		b.reads.busy += d
		if err != nil {
			b.reads.fail()
			continue
		}
		b.reads.ok(d, len(path)-1)
		ok = path[0] == src && path[len(path)-1] == dst
		b.check(ok, "backbone route %d->%d has endpoints %v", src, dst, path)
		if err := routing.ValidatePath(path, res.UDG); err != nil {
			b.check(false, "backbone route %d->%d: %v", src, dst, err)
		}
	}
}

// handoffServer is an abandoned durable server and the live epoch its
// recovery must reproduce.
type handoffServer struct {
	s    *target
	live *gs.Epoch
	fp   uint64
}

// handoff serves network k of the run from a durable server for a short
// churn tail, checks it, and abandons it without Close; the window then
// recovers it between builds. A traced run mirrors the first one.
func (b *bench) handoff(k int, inst *gs.Instance, radius float64) (*handoffServer, error) {
	op := b.nextOp()
	tail := b.tr.begin("handoff", b.root, op)
	defer b.tr.end(tail)
	s := &target{b: b, radius: radius, dir: b.dir(fmt.Sprintf("wal-handoff-%d", k))}
	var err error
	b.timed("serve.new_server", tail, op, func() { s.srv, err = gs.NewServer(inst.Points, radius, gs.WithWAL(s.dir)) })
	if err != nil {
		return nil, err
	}
	if b.tr != nil && k == 0 {
		if err := s.startMirror(tail, inst.Points); err != nil {
			return nil, err
		}
	}
	prof, _ := gs.SchedulerProfileByName("mixed")
	sched := gs.NewSchedulerProfile(b.seed+1+int64(k), inst.Points, region, radius, prof)
	for range tailEpochs {
		events := sched.Batch(4)
		op := b.nextOp()
		epoch := b.tr.begin("epoch", tail, op)
		d := b.timed("serve.tail_apply", epoch, op, func() { _, err = s.srv.Apply(events) })
		if err != nil {
			b.tail.fail()
			b.note("handoff epoch failed: %v", err)
		} else {
			b.tail.ok(d)
		}
		s.mirrorStep(epoch, op, events, d)
		b.tr.end(epoch)
	}
	live, err := s.abandon()
	if err != nil {
		return nil, err
	}
	return &handoffServer{s, live, live.Fingerprint()}, nil
}
