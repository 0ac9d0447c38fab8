package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relop"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// Per-layer metrics come from three sources, all outside the program: counter
// deltas over public accessors across the measured window, spans the driver
// derives from its own timestamps and the reply's queue_ms/latency_ms, and
// cells that time calls into one layer's public functions. The cells do not
// depend on the workload; their values repeat in every workload's row.

// replayCount is how many requests of the run's sequence are replayed
// directly against a fresh engine, and replayInflight how many are kept in
// flight, as many as the closed loops keep at the server.
const (
	replayCount    = 200
	replayInflight = numClients
)

// perLayer fills res.Metrics with every per-layer metric and writes the span
// file.
func perLayer(res *runResult, b *bed, win window, seq []request, traceOut string) error {
	rec := &spanRecorder{origin: win.before.at}
	windowLayers(res, b, win, rec)
	if err := pingCell(res, b); err != nil {
		return err
	}
	if err := replayCell(res, b, seq[:replayCount], rec, len(win.samples)); err != nil {
		return err
	}
	if err := operatorCells(res, b.db); err != nil {
		return err
	}
	submitPathCells(res, b.db)
	if err := aloneCells(res, b); err != nil {
		return err
	}
	return writeSpans(traceOut, res, rec)
}

func setMetric(res *runResult, name string, v float64, unit string) {
	res.Metrics[name] = metric{v, unit}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sumJoins(m map[int]int64) (n int64) {
	for _, v := range m {
		n += v
	}
	return n
}

// windowLayers derives the counter and span metrics of the measured window.
func windowLayers(res *runResult, b *bed, win window, rec *spanRecorder) {
	st0, st1 := win.before.st, win.after.st
	var ok, shared, queued, shed float64
	var late []float64
	origin := win.before.at
	for i, s := range win.samples {
		late = append(late, float64(s.sent-s.due)/float64(time.Millisecond))
		if s.status == server.StatusShed {
			shed++
		}
		if s.status != server.StatusOK {
			continue
		}
		ok++
		switch s.decision {
		case core.AdmitShared.String():
			shared++
		case core.AdmitQueue.String():
			queued++
		}
		// The reply carries how long the server held the request and how long
		// of that it queued; both are placed against the reply's arrival, so
		// the request's self time is wire plus client, and server.handle's is
		// execution.
		end := origin.Add(s.done)
		root := rec.add("request", i, -1, origin.Add(s.due), end)
		if s.sent > s.due {
			rec.add("workload.late", i, root, origin.Add(s.due), origin.Add(s.sent))
		}
		handleStart := end.Add(-time.Duration(s.latencyMS * float64(time.Millisecond)))
		if sent := origin.Add(s.sent); handleStart.Before(sent) {
			handleStart = sent
		}
		h := rec.add("server.handle", i, root, handleStart, end)
		rec.add("server.queue", i, h, handleStart, handleStart.Add(time.Duration(s.queueMS*float64(time.Millisecond))))
	}
	var wire, exec, queue []float64
	self := selfTimesUS(rec.spans)
	for i, sp := range rec.spans {
		switch sp.Name {
		case "request":
			wire = append(wire, self[i])
		case "server.handle":
			exec = append(exec, self[i]/1000)
		case "server.queue":
			queue = append(queue, (sp.EndUS-sp.StartUS)/1000)
		}
	}
	sort.Float64s(wire)
	sort.Float64s(exec)
	sort.Float64s(queue)
	sort.Float64s(late)
	q99, _ := tailPercentile(queue, 0.99)
	late99, _ := tailPercentile(late, 0.99)
	if b.w.open && late99 > 1 {
		res.Notes = append(res.Notes, fmt.Sprintf("generator-bound: requests left %.2f ms late at p99", late99))
	}

	perQuery := func(n int64) float64 { return ratio(float64(n), ok) }
	setMetric(res, "storage.pool_gets_per_query", perQuery(st1.PoolGets-st0.PoolGets), "count")
	setMetric(res, "storage.pool_hits_per_query", perQuery(st1.PoolHits-st0.PoolHits), "count")
	setMetric(res, "storage.pool_puts_per_query", perQuery(st1.PoolPuts-st0.PoolPuts), "count")

	hits, misses := float64(st1.CompileHits-st0.CompileHits), float64(st1.CompileMisses-st0.CompileMisses)
	setMetric(res, "engine.compile_hit_ratio", ratio(hits, hits+misses), "ratio")
	joins := sumJoins(st1.PivotJoins) - sumJoins(st0.PivotJoins) +
		st1.BuildJoins - st0.BuildJoins + st1.InflightAttaches - st0.InflightAttaches
	setMetric(res, "engine.shared_frac", ratio(float64(joins), float64(st1.Completed-st0.Completed)), "ratio")
	setMetric(res, "engine.hash_builds_per_query", perQuery(st1.HashBuilds-st0.HashBuilds), "count")
	setMetric(res, "engine.steals_per_query", perQuery(st1.Steals-st0.Steals), "count")
	setMetric(res, "engine.parks_per_query", perQuery(st1.Parks-st0.Parks), "count")

	hits, misses = float64(st1.CacheHits-st0.CacheHits), float64(st1.CacheMisses-st0.CacheMisses)
	setMetric(res, "artifact.hit_ratio", ratio(hits, hits+misses), "ratio")
	setMetric(res, "artifact.evictions_per_query", perQuery(st1.CacheEvictions-st0.CacheEvictions), "count")
	setMetric(res, "artifact.bytes", float64(st1.CacheBytes), "B")

	scatters, routed := float64(st1.Scatters-st0.Scatters), float64(st1.Routed-st0.Routed)
	setMetric(res, "cluster.scatter_frac", ratio(scatters, scatters+routed), "ratio")
	setMetric(res, "cluster.bus_joins_per_query", perQuery(st1.BusJoins-st0.BusJoins), "count")
	lo, hi := math.Inf(1), 0.0
	for i := range st1.Shards {
		n := float64(st1.Shards[i].Completed - st0.Shards[i].Completed)
		lo, hi = math.Min(lo, n), math.Max(hi, n)
	}
	setMetric(res, "cluster.shard_imbalance", ratio(hi, lo), "ratio")

	setMetric(res, "server.queue_ms_p50", percentile(queue, 0.5), "ms")
	setMetric(res, "server.queue_ms_p99", q99, "ms")
	setMetric(res, "server.exec_ms_p50", percentile(exec, 0.5), "ms")
	setMetric(res, "server.wire_overhead_us_p50", percentile(wire, 0.5), "us")
	setMetric(res, "server.admit_shared_frac", ratio(shared, ok), "ratio")
	setMetric(res, "server.queued_frac", ratio(queued, ok), "ratio")
	setMetric(res, "server.shed_frac", ratio(shed, float64(len(win.samples))), "ratio")
	setMetric(res, "workload.gen_late_ms_p99", late99, "ms")

	wall := win.after.at.Sub(win.before.at).Seconds()
	cpu := (win.after.cpu - win.before.cpu).Seconds()
	setMetric(res, "proc.cpu_util", ratio(cpu, wall*float64(runtime.NumCPU())), "ratio")
	setMetric(res, "proc.gc_cpu_frac", ratio(win.after.gcCPU-win.before.gcCPU, cpu), "ratio")
	setMetric(res, "proc.allocs_per_query", perQuery(int64(win.after.allocs-win.before.allocs)), "count")
}

// pingCell times the wire alone: ping round trips on an idle connection.
func pingCell(res *runResult, b *bed) error {
	var rtt []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := b.conns[0].Do(server.Request{Op: "ping"}); err != nil {
			return fmt.Errorf("ping: %w", err)
		}
		rtt = append(rtt, float64(time.Since(t0))/float64(time.Microsecond))
	}
	setMetric(res, "server.ping_rtt_us_p50", median(rtt), "us")
	return nil
}

// target is an engine or a cluster behind one submit call, so that the replay
// and the alone cells drive both the same way.
type target struct {
	// prepare builds what a request submits: the spec whose compilation the
	// engine will need, and the call that submits it.
	prepare func(p pair) (engine.QuerySpec, func(onDone func(*storage.Batch, error)) error)
	close   func()
}

// newTarget starts a fresh engine (shards == 1) or cluster with the given
// options over db.
func newTarget(db *tpch.DB, shards int, opts engine.Options, pol engine.SharePolicy) (*target, error) {
	if shards <= 1 {
		eng, err := engine.New(opts)
		if err != nil {
			return nil, err
		}
		return &target{
			prepare: func(p pair) (engine.QuerySpec, func(func(*storage.Batch, error)) error) {
				fam, _ := tpch.FamilyByName(p.family)
				spec := fam.Spec(db, 0, p.variant)
				return spec, func(onDone func(*storage.Batch, error)) error {
					_, err := eng.SubmitFn(spec, pol, onDone)
					return err
				}
			},
			close: eng.Close,
		}, nil
	}
	sdb, err := tpch.NewShardedDB(db, shards)
	if err != nil {
		return nil, err
	}
	plans, err := tpch.CompileShardPlans(sdb, 0)
	if err != nil {
		return nil, err
	}
	cl, err := engine.NewCluster(shards, opts)
	if err != nil {
		return nil, err
	}
	return &target{
		prepare: func(p pair) (engine.QuerySpec, func(func(*storage.Batch, error)) error) {
			plan := plans[fmt.Sprintf("%s/%d", p.family, p.variant)]
			return plan.Template, func(onDone func(*storage.Batch, error)) error {
				_, err := cl.SubmitFn(plan, pol, onDone)
				return err
			}
		},
		close: cl.Close,
	}, nil
}

// batchesEqual compares a result with the oracle's: integers and strings
// exactly, floats to 1e-9 relative, because shared and scattered plans add
// partial sums in another order than the single-threaded reference.
func batchesEqual(got, want *storage.Batch) bool {
	if got == nil || got.Len() != want.Len() || len(got.Vecs) != len(want.Vecs) {
		return false
	}
	for c, col := range want.Schema.Cols {
		for i := 0; i < want.Len(); i++ {
			switch col.Type {
			case storage.Int64, storage.Date:
				if got.Vecs[c].I64[i] != want.Vecs[c].I64[i] {
					return false
				}
			case storage.String:
				if got.Vecs[c].Str[i] != want.Vecs[c].Str[i] {
					return false
				}
			case storage.Float64:
				g, w := got.Vecs[c].F64[i], want.Vecs[c].F64[i]
				if math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
					return false
				}
			}
		}
	}
	return true
}

// replayCell replays the first requests of the run's sequence directly
// against a fresh engine or cluster with the workload's options, a fixed
// number in flight, with a span around each call into tpch and engine, and
// checks every result batch against the oracle. Its spans take request ids
// from firstReq on, past the window's.
func replayCell(res *runResult, b *bed, seq []request, rec *spanRecorder, firstReq int) error {
	opts, pol, err := engineOptions(b.w)
	if err != nil {
		return err
	}
	tgt, err := newTarget(b.db, b.w.shards, opts, pol)
	if err != nil {
		return err
	}
	defer tgt.close()

	type times struct{ start, spec, compile, submit, run time.Time }
	ts := make([]times, len(seq))
	errs := make([]error, len(seq))
	slots := make(chan struct{}, replayInflight)
	for i, r := range seq {
		slots <- struct{}{}
		p := pair{r.family, r.variant}
		t := &ts[i]
		t.start = time.Now()
		spec, submit := tgt.prepare(p)
		t.spec = time.Now()
		engine.Compile(spec)
		t.compile = time.Now()
		err := submit(func(got *storage.Batch, err error) {
			t.run = time.Now()
			if err == nil && !batchesEqual(got, b.refs[p]) {
				err = fmt.Errorf("result differs from the reference")
			}
			errs[i] = err
			<-slots
		})
		t.submit = time.Now()
		if err != nil {
			errs[i] = err
			<-slots
		}
	}
	for i := 0; i < replayInflight; i++ { // wait for the last ones in flight
		slots <- struct{}{}
	}
	var compileUS, submitUS, runMS []float64
	for i, t := range ts {
		if errs[i] != nil {
			return fmt.Errorf("replay request %d (%s/%d): %w", i, seq[i].family, seq[i].variant, errs[i])
		}
		if t.run.Before(t.submit) { // served before SubmitFn returned
			t.run = t.submit
		}
		req := firstReq + i
		root := rec.add("replay", req, -1, t.start, t.run)
		rec.add("tpch.spec", req, root, t.start, t.spec)
		rec.add("engine.compile", req, root, t.spec, t.compile)
		rec.add("engine.submit", req, root, t.compile, t.submit)
		rec.add("engine.run", req, root, t.submit, t.run)
		compileUS = append(compileUS, float64(t.compile.Sub(t.spec))/float64(time.Microsecond))
		submitUS = append(submitUS, float64(t.submit.Sub(t.compile))/float64(time.Microsecond))
		runMS = append(runMS, float64(t.run.Sub(t.submit))/float64(time.Millisecond))
	}
	sort.Float64s(submitUS)
	p99, _ := tailPercentile(submitUS, 0.99)
	setMetric(res, "engine.compile_cold_us", median(compileUS), "us")
	setMetric(res, "engine.submit_us_p50", percentile(submitUS, 0.5), "us")
	setMetric(res, "engine.submit_us_p99", p99, "us")
	setMetric(res, "engine.run_ms_p50", median(runMS), "ms")
	return nil
}

// medianOf times fn reps times and returns the median duration in seconds.
func medianOf(reps int, fn func()) float64 {
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = time.Since(t0).Seconds()
	}
	return median(d)
}

func discard(*storage.Batch) error { return nil }

// pagesOf materialises a scan's output pages.
func pagesOf(t *storage.Table, pred relop.Pred, cols []string) ([]*storage.Batch, storage.Schema, int, error) {
	var pages []*storage.Batch
	rows := 0
	sc, err := relop.NewScan(t, pred, cols, 0, func(b *storage.Batch) error {
		pages = append(pages, b)
		rows += b.Len()
		return nil
	})
	if err != nil {
		return nil, storage.Schema{}, 0, err
	}
	return pages, sc.OutSchema(), rows, sc.Run()
}

// operatorCells times data generation, a table scan and each relop operator
// the mix's plans are made of, single-threaded over the benchmark's tables.
func operatorCells(res *runResult, db *tpch.DB) error {
	const reps = 5
	var err error
	note := func(e error) {
		if err == nil {
			err = e
		}
	}
	mrows := func(rows int, secs float64) float64 { return ratio(float64(rows)/1e6, secs) }
	run := func(op relop.Operator, pages []*storage.Batch) {
		for _, p := range pages {
			note(op.Push(p))
		}
		note(op.Finish())
	}

	setMetric(res, "tpch.generate_ms", 1000*medianOf(3, func() {
		_, e := tpch.Generate(tpch.Config{ScaleFactor: scaleFactor, Seed: dataSeed})
		note(e)
	}), "ms")
	pairs := mixPairs()
	setMetric(res, "tpch.spec_build_us", 1e6/float64(len(pairs))*medianOf(50, func() {
		for _, p := range pairs {
			fam, _ := tpch.FamilyByName(p.family)
			fam.Spec(db, 0, p.variant)
		}
	}), "us")

	n := db.Lineitem.NumRows()
	setMetric(res, "storage.scan_mrows_per_s", mrows(n, medianOf(50, func() {
		db.Lineitem.Scan(0, func(*storage.Batch) bool { return true })
	})), "Mrows/s")

	line, lineSchema, _, e := pagesOf(db.Lineitem, nil, nil)
	note(e)
	setMetric(res, "relop.filter_mrows_per_s", mrows(n, medianOf(reps, func() {
		run(relop.NewFilter(tpch.Q6Pred(), lineSchema, discard), line)
	})), "Mrows/s")
	setMetric(res, "relop.agg_mrows_per_s", mrows(n, medianOf(reps, func() {
		agg, e := relop.NewHashAgg(lineSchema, []string{"l_returnflag", "l_linestatus"}, []relop.AggSpec{
			{Func: relop.Sum, Expr: relop.Col("l_quantity"), As: "sum_qty"},
			{Func: relop.Sum, Expr: relop.Col("l_extendedprice"), As: "sum_base_price"},
			{Func: relop.Avg, Expr: relop.Col("l_discount"), As: "avg_disc"},
			{Func: relop.Count, As: "count_order"},
		}, discard)
		note(e)
		if e == nil {
			run(agg, line)
		}
	})), "Mrows/s")

	// Q4's join: late-commit lineitem keys build, orders probe.
	build, buildSchema, buildRows, e := pagesOf(db.Lineitem, tpch.Q4LineitemPred(), []string{"l_orderkey"})
	note(e)
	probe, probeSchema, probeRows, e := pagesOf(db.Orders, nil, []string{"o_orderkey", "o_orderpriority"})
	note(e)
	if err != nil {
		return err
	}
	var table *relop.HashTable
	setMetric(res, "relop.join_build_mrows_per_s", mrows(buildRows, medianOf(reps, func() {
		jb, e := relop.NewJoinBuild(buildSchema, "l_orderkey")
		note(e)
		if e == nil {
			run(jb, build)
			table = jb.Table()
		}
	})), "Mrows/s")
	setMetric(res, "relop.join_probe_mrows_per_s", mrows(probeRows, medianOf(reps, func() {
		hp, e := relop.NewHashJoinProbe(relop.Semi, buildSchema, "l_orderkey", probeSchema, "o_orderkey", discard)
		note(e)
		if e == nil {
			note(hp.AttachTable(table))
			run(hp, probe)
		}
	})), "Mrows/s")
	setMetric(res, "relop.sort_mrows_per_s", mrows(buildRows, medianOf(reps, func() {
		srt, e := relop.NewSort(buildSchema, []relop.SortKey{{Column: "l_orderkey", Desc: true}}, discard)
		note(e)
		if e == nil {
			run(srt, build)
		}
	})), "Mrows/s")
	return err
}

// submitPathCells times what every submission pays before any operator runs:
// the warm compile check, admission pricing, and the artifact cache.
func submitPathCells(res *runResult, db *tpch.DB) {
	const loops = 2000
	env := core.NewEnv(2)
	var warm, admit []float64
	for _, p := range mixPairs() {
		fam, _ := tpch.FamilyByName(p.family)
		spec := fam.Spec(db, 0, p.variant)
		cp := engine.Compile(spec)
		t0 := time.Now()
		for i := 0; i < loops; i++ {
			if !cp.Valid() || !cp.Matches(spec) {
				panic("bench: a fresh compile artifact does not match its own spec")
			}
		}
		warm = append(warm, float64(time.Since(t0).Nanoseconds())/loops)
		cands := []core.Query{spec.Model}
		if len(spec.Pivots) > 0 {
			cands = cands[:0]
			for _, opt := range spec.Pivots {
				cands = append(cands, opt.Model)
			}
		}
		t0 = time.Now()
		for i := 0; i < loops; i++ {
			core.Admit(cands, 2, 2, 1, core.AdmitLoad{Active: 2, Queued: 1}, env)
		}
		admit = append(admit, float64(time.Since(t0).Nanoseconds())/loops)
	}
	setMetric(res, "engine.compile_warm_ns", median(warm), "ns")
	setMetric(res, "core.admit_ns", median(admit), "ns")

	cache := artifact.New(artifact.Config{BudgetBytes: 64 << 20})
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench/key/%d", i)
	}
	model := tpch.Q6FamilyModel(2)
	t0 := time.Now()
	for _, k := range keys {
		cache.Put(k, k, 4096, model, 0)
	}
	setMetric(res, "artifact.put_ns", float64(time.Since(t0).Nanoseconds())/float64(len(keys)), "ns")
	t0 = time.Now()
	for _, k := range keys {
		cache.Get(k, 0)
	}
	setMetric(res, "artifact.get_ns", float64(time.Since(t0).Nanoseconds())/float64(len(keys)), "ns")
}

// aloneCells times each family's variant 0 one at a time on an idle engine
// of two workers, never sharing, and the same through an idle two-shard
// cluster, where it also times the scatter call itself.
func aloneCells(res *runResult, b *bed) error {
	const reps = 5
	one := func(tgt *target, p pair) (submitUS, totalMS float64, err error) {
		done := make(chan error, 1)
		t0 := time.Now()
		_, submit := tgt.prepare(p)
		err = submit(func(got *storage.Batch, err error) {
			if err == nil && !batchesEqual(got, b.refs[p]) {
				err = fmt.Errorf("%s/%d alone: result differs from the reference", p.family, p.variant)
			}
			done <- err
		})
		t1 := time.Now()
		if err == nil {
			err = <-done
		}
		return float64(t1.Sub(t0)) / float64(time.Microsecond), float64(time.Since(t0)) / float64(time.Millisecond), err
	}

	eng, err := newTarget(b.db, 1, engine.Options{Workers: 2}, nil)
	if err != nil {
		return err
	}
	defer eng.close()
	cl, err := newTarget(b.db, 2, engine.Options{Workers: 1}, nil)
	if err != nil {
		return err
	}
	defer cl.close()
	var clSubmit, clTotal []float64
	for _, f := range tpch.Families() {
		var total []float64
		for i := 0; i < reps; i++ {
			_, ms, err := one(eng, pair{f.Name, 0})
			if err != nil {
				return err
			}
			total = append(total, ms)
			us, ms, err := one(cl, pair{f.Name, 0})
			if err != nil {
				return err
			}
			clSubmit, clTotal = append(clSubmit, us), append(clTotal, ms)
		}
		setMetric(res, "engine.alone_ms."+f.Name, median(total), "ms")
	}
	setMetric(res, "cluster.submit_us_p50", median(clSubmit), "us")
	setMetric(res, "cluster.alone_ms", median(clTotal), "ms")
	return nil
}

// writeSpans writes the run's spans, kept in memory until now, as one JSON
// file.
func writeSpans(path string, res *runResult, rec *spanRecorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{res.Workload, res.Seed, rec.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
