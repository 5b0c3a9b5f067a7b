package main

import "time"

// replayDetail is the traced run's record beyond the per-layer metrics:
// sample counts and the raw per-mode costs they are derived from.
type replayDetail struct {
	TracedN           int                     `json:"traced_queries"`
	BareN             int                     `json:"bare_queries"`
	Failed            int                     `json:"failed"`
	TracedCPUms       float64                 `json:"traced_cpu_ms_per_query"`
	BareCPUms         float64                 `json:"bare_cpu_ms_per_query"`
	BareAllocKB       float64                 `json:"bare_alloc_kb_per_query"`
	MatConfigAgree    int                     `json:"matconfig_agree"`
	MatConfigCompared int                     `json:"matconfig_compared"`
	ParseUs           classSummary            `json:"parse_us"`
	PlanUs            classSummary            `json:"plan_us"`
	StatsMs           classSummary            `json:"stats_ms"`
	ExecUs            classSummary            `json:"execute_us"`
	ExecMsByClass     map[string]classSummary `json:"execute_ms_by_class"`
	StorePutUs        classSummary            `json:"store_put_us"`
	SpansFile         string                  `json:"spans_file"`
}

// perLayer derives the per-layer metrics from a traced run: the served
// window (e2e), its summary, and the replay of the same requests.
func perLayer(w *Workload, e2e *e2eRun, sum e2eSummary, rr *replayResult, answers []Answer) (map[string]metric, *replayDetail) {
	d := &replayDetail{TracedN: rr.TracedN, BareN: rr.BareN, Failed: rr.Failed}
	if rr.TracedN > 0 {
		d.TracedCPUms = ms(rr.TracedCPU) / float64(rr.TracedN)
	}
	if rr.BareN > 0 {
		d.BareCPUms = ms(rr.BareCPU) / float64(rr.BareN)
		d.BareAllocKB = float64(rr.BareAllocs) / 1e3 / float64(rr.BareN)
	}

	servedMat := make(map[int64]string, len(e2e.Results))
	for _, s := range e2e.Results {
		if s.OK {
			servedMat[s.Req] = s.MatConfig
		}
	}
	var parse, plan, exec, puts []float64
	execByClass := map[string][]float64{}
	var ftplans, paths, matOps, tasks, failures, recomputed, putN, getN, rowsPut int64
	var wastedMs, ckptBytes float64
	for _, q := range rr.Traced {
		parse = append(parse, us(q.Parse))
		plan = append(plan, us(q.Plan))
		exec = append(exec, us(q.Exec))
		execByClass[q.Class] = append(execByClass[q.Class], ms(q.Exec))
		ftplans += int64(q.FTPlans)
		paths += int64(q.Paths)
		matOps += int64(q.MatOps)
		tasks += q.Tasks
		failures += int64(q.Failures)
		recomputed += int64(q.Recomputed)
		wastedMs += q.WastedSec * 1e3
		ckptBytes += float64(q.CkptBytes)
		putN += q.Store.puts
		getN += q.Store.gets
		rowsPut += q.Store.rowsPut
		for _, dur := range q.Store.putDur {
			puts = append(puts, us(dur))
		}
		if mat, ok := servedMat[q.Req]; ok {
			d.MatConfigCompared++
			if mat == q.MatConfig {
				d.MatConfigAgree++
			}
		}
	}
	var stats []float64
	for _, dur := range rr.StatsDur {
		stats = append(stats, ms(dur))
	}
	d.ParseUs = classSummary{N: len(parse), P50: median(parse)}
	d.PlanUs = classSummary{N: len(plan), P50: median(plan)}
	d.ExecUs = classSummary{N: len(exec), P50: median(exec)}
	d.StatsMs = classSummary{N: len(stats), P50: median(stats)}
	d.StorePutUs = classSummary{N: len(puts), P50: median(puts)}
	d.ExecMsByClass = map[string]classSummary{}
	for c, xs := range execByClass {
		d.ExecMsByClass[c] = classSummary{N: len(xs), P50: median(xs)}
	}

	perQuery := func(v float64) float64 {
		if len(rr.Traced) == 0 {
			return 0
		}
		return v / float64(len(rr.Traced))
	}
	perServed := func(v float64) float64 {
		if sum.Completed == 0 {
			return 0
		}
		return v / float64(sum.Completed)
	}
	agreement, overhead := 0.0, 0.0
	if d.MatConfigCompared > 0 {
		agreement = float64(d.MatConfigAgree) / float64(d.MatConfigCompared)
	}
	if d.BareCPUms > 0 {
		overhead = d.TracedCPUms/d.BareCPUms - 1
	}
	oracle := oracleSummary(w, answers)
	return map[string]metric{
		"service.self_cpu_ms_per_query":      {sum.CPUmsPerQuery - d.BareCPUms, "ms"},
		"service.self_alloc_kb_per_query":    {sum.AllocMBPerQuery*1e3 - d.BareAllocKB, "KB"},
		"sql.parse_us":                       {d.ParseUs.P50, "us"},
		"sql.plan_us":                        {d.PlanUs.P50, "us"},
		"sql.stats_ms":                       {d.StatsMs.P50, "ms"},
		"core.ftplans_enumerated_per_query":  {perQuery(float64(ftplans)), "count"},
		"core.paths_evaluated_per_query":     {perQuery(float64(paths)), "count"},
		"core.mat_ops_per_query":             {perQuery(float64(matOps)), "count"},
		"core.matconfig_agreement":           {agreement, "frac"},
		"runtime.execute_ms.q1":              {d.ExecMsByClass["q1"].P50, "ms"},
		"runtime.execute_ms.q3":              {d.ExecMsByClass["q3"].P50, "ms"},
		"runtime.execute_ms.q5":              {d.ExecMsByClass["q5"].P50, "ms"},
		"runtime.execute_us":                 {d.ExecUs.P50, "us"},
		"runtime.tasks_per_query":            {perQuery(float64(tasks)), "count"},
		"runtime.failures_per_query":         {perQuery(float64(failures)), "count"},
		"runtime.recomputed_parts_per_query": {perQuery(float64(recomputed)), "count"},
		"runtime.wasted_ms_per_query":        {perQuery(wastedMs), "ms"},
		"runtime.checkpoint_bytes_per_query": {perQuery(ckptBytes), "B"},
		"runtime.pool_busy_frac":             {rr.PoolBusy, "frac"},
		"runtime.pool_waiting_mean":          {rr.PoolWaiting, "count"},
		"engine.store.put_per_query":         {perQuery(float64(putN)), "count"},
		"engine.store.put_us":                {d.StorePutUs.P50, "us"},
		"engine.store.get_per_query":         {perQuery(float64(getN)), "count"},
		"engine.store.rows_put_per_query":    {perQuery(float64(rowsPut)), "count"},
		"engine.arena_hit_ratio":             {rr.ArenaHitRatio, "frac"},
		"engine.coordinator_ms.q1":           {oracle["q1"].P50, "ms"},
		"engine.coordinator_ms.q3":           {oracle["q3"].P50, "ms"},
		"engine.coordinator_ms.q5":           {oracle["q5"].P50, "ms"},
		"go.gc_cycles_per_query":             {perServed(float64(sum.GCCycles)), "count"},
		"go.gc_pause_p99_us":                 {sum.GCPauseP99us, "us"},
		"trace.overhead_frac":                {overhead, "frac"},
	}, d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
