package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	esr "repro"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile is the Harrell-Davis estimate of the q-quantile of xs: a
// weighted mean of all order statistics, with weights from the Beta
// distribution of the q-quantile of n samples. It moves far less from run
// to run than one interpolated order statistic when the samples are few, as
// they are for the large systems. 0 for no samples (a run without samples
// has failed operations and is not correct).
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	var est, prev float64
	for i := range s {
		cur := betaInc(a, b, float64(i+1)/float64(n))
		est += (cur - prev) * s[i]
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes (betacf) with modified Lentz.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x) + b*math.Log1p(-x) + lab - la - lb)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const eps, tiny = 1e-15, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1; m <= 10000; m++ {
		fm, m2 := float64(m), float64(2*m)
		aa := fm * (b - fm) * x / ((a - 1 + m2) * (a + m2))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + fm) * (a + b + fm) * x / ((a + m2) * (a + 1 + m2))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// pBlock is the stretch length of blockQuantile.
const pBlock = 10

// blockQuantile is the median, over consecutive stretches of block samples
// in the order they were taken, of each stretch's q-quantile. The program's
// own tail shows in every stretch and stays in it, while a few seconds of
// machine noise that slow a minority of the stretches move it no more than
// they move a median. With fewer than two stretches it is the plain
// quantile.
func blockQuantile(xs []float64, q float64, block int) float64 {
	if len(xs) < 2*block {
		return quantile(xs, q)
	}
	var per []float64
	for i := 0; i+block <= len(xs); i += block {
		per = append(per, quantile(xs[i:i+block], q))
	}
	return median(per)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean is 0 for no samples.
func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd is the untraced run's report: what a user of the library or the
// daemon sees on this workload's system.
func (b *bench) endToEnd() map[string]metric {
	t := b.t
	out := map[string]metric{
		"setup_s":         {median(b.setupS), "s"},
		"ref_solve_s":     {median(t["ref"]), "s"},
		"solve_s":         {median(t["esr"]), "s"},
		"fail3_solve_s":   {median(t["fail3"]), "s"},
		"overlap_solve_s": {median(t["overlap"]), "s"},
		"batch_rhs_per_s": {ratio(float64(batchesPerGroup*b.wl.batchWidth), median(t["batch_group"])), "1/s"},
		"jobs_per_s":      {ratio(jobClients, mean(t["job_cycle"])), "1/s"},
		"job_p50_s":       {median(t["job"]), "s"},
		"job_p90_s":       {blockQuantile(t["job"], 0.9, pBlock), "s"},
	}
	b.samples["setup_s"] = len(b.setupS)
	for name, kind := range map[string]string{
		"ref_solve_s": "ref", "solve_s": "esr", "fail3_solve_s": "fail3",
		"overlap_solve_s": "overlap", "job_p50_s": "job", "job_p90_s": "job",
	} {
		b.samples[name] = len(t[kind])
	}
	b.samples["batch_rhs_per_s"] = len(t["batch_group"])
	b.samples["jobs_per_s"] = len(t["job_cycle"])
	return out
}

// perLayer is the traced run's report. Each metric is measured around a
// layer's public functions or derived from the solver's observer-only
// trace; NOTES.md maps each to the end-to-end metric it should move.
func (b *bench) perLayer() map[string]metric {
	t, l := b.t, b.layer
	solve := median(t["esr"])
	iters := median(t["iters"])
	iterUS := ratio(solve, iters) * 1e6
	recoveryMS := median(t["recovery"]) * 1e3
	traced := sum(t["esr_traced"])
	phases := sum(t["spmv"]) + sum(t["precond"]) + sum(t["allreduce"])
	out := map[string]metric{
		"sparse.spmv_ns_per_nnz":           {l["sparse.spmv_ns_per_nnz"], "ns"},
		"sparse.spmm_ns_per_nnz_col":       {l["sparse.spmm_ns_per_nnz_col"], "ns"},
		"localsolve.ilu0_factor_ms":        {l["localsolve.ilu0_factor_ms"], "ms"},
		"localsolve.ilu0_sweep_ns_per_nnz": {l["localsolve.ilu0_sweep_ns_per_nnz"], "ns"},
		"localsolve.solvek_ns_per_nnz_col": {l["localsolve.solvek_ns_per_nnz_col"], "ns"},
		"commplan.plan_ms":                 {l["commplan.plan_ms"], "ms"},
		"commplan.extra_elems":             {l["commplan.extra_elems"], "count"},
		"cluster.allreduce_us":             {l["cluster.allreduce_us"], "us"},
		"distmat.matvec_ref_us":            {l["distmat.matvec_ref_us"], "us"},
		"distmat.matvec_phi3_us":           {l["distmat.matvec_phi3_us"], "us"},
		"core.iterations":                  {iters, "count"},
		"core.iter_us":                     {iterUS, "us"},
		"core.redundancy_floats_per_iter":  {median(t["redundancy_per_iter"]), "count"},
		"core.recovery_ms":                 {recoveryMS, "ms"},
		"core.recovery_sub_iters":          {median(t["recovery_sub_iters"]), "count"},
		"core.recovery_iter_equiv":         {ratio(recoveryMS*1e3, iterUS), "ratio"},
		"core.overlap_restarts":            {median(t["overlap_restarts"]), "count"},
		"core.esr_overhead_ratio":          {ratio(solve, median(t["ref"])), "ratio"},
		"core.fail3_overhead_ratio":        {ratio(median(t["fail3"]), median(t["ref"])), "ratio"},
		"core.spmv_frac":                   {ratio(sum(t["spmv"]), traced), "ratio"},
		"core.precond_frac":                {ratio(sum(t["precond"]), traced), "ratio"},
		"core.allreduce_frac":              {ratio(sum(t["allreduce"]), traced), "ratio"},
		"core.explained_frac":              {ratio(phases, traced), "ratio"},
		"core.iter_phase_ms":               {ratio(phases, float64(len(t["esr_traced"]))) * 1e3, "ms"},
		"core.traced_solve_ms":             {median(t["esr_traced"]) * 1e3, "ms"},
		"trace.overhead_frac":              {ratio(median(t["esr_traced"]), solve) - 1, "ratio"},
		"engine.queue_wait_ms":             {median(t["queue_wait"]) * 1e3, "ms"},
		"engine.run_ms":                    {median(t["run"]) * 1e3, "ms"},
		"engine.prep_cache_hit_ratio":      {ratio(l["prep_hits"], l["prep_acquires"]), "ratio"},
		"engine.job_phase_frac":            {ratio(l["job_phase_s"], l["job_run_s"]), "ratio"},
		"store.append_us":                  {l["store.append_us"], "us"},
		"store.records_per_job":            {ratio(l["journal_records"], l["journal_jobs"]), "count"},
		"store.replay_ms":                  {median(t["store_replay"]) * 1e3, "ms"},
		"esrd.submit_ms":                   {median(t["submit"]) * 1e3, "ms"},
	}
	for name, kind := range map[string]string{
		"core.iterations": "iters", "core.recovery_ms": "recovery", "core.overlap_restarts": "overlap_restarts",
		"core.explained_frac": "esr_traced", "trace.overhead_frac": "esr_traced",
		"engine.queue_wait_ms": "queue_wait", "engine.run_ms": "run", "store.replay_ms": "store_replay",
		"esrd.submit_ms": "submit",
	} {
		b.samples[name] = len(t[kind])
	}
	return out
}

// machineShape records what the numbers were measured on, so that runs of
// different shapes are not read as comparable.
func machineShape(wl workload, a *esr.Matrix) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git_sha":    gitSHA(),
		"workload":   wl.name,
		"rows":       a.Rows,
		"nnz":        a.NNZ(),
		"ranks":      wl.ranks,
		"phi":        phi,
		"transport":  "chan",
	}
}

// cpuStat is the first line of /proc/stat: the time all CPUs spent in each
// state (user, nice, system, idle, iowait, irq, softirq, steal), or nil
// where it cannot be read.
func cpuStat() []float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	v := make([]float64, 8)
	for i := range v {
		if v[i], err = strconv.ParseFloat(f[i+1], 64); err != nil {
			return nil
		}
	}
	return v
}

// stealFrac is the share of CPU time between two cpuStat readings that the
// hypervisor gave to other guests while this one wanted to run: on a shared
// host, the runs that show a high share are the ones slowed by neighbours.
// -1 where /proc/stat cannot be read.
func stealFrac(a, b []float64) float64 {
	if a == nil || b == nil {
		return -1
	}
	var total float64
	for i := range a {
		total += b[i] - a[i]
	}
	return ratio(b[7]-a[7], total)
}

// gitSHA is the commit of the working directory when it is the top of a
// git work tree, and "unknown" otherwise (an exported checkout).
func gitSHA() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil || filepath.Clean(strings.TrimSpace(string(top))) != filepath.Clean(wd) {
		return "unknown"
	}
	sha, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}
