package main

import (
	"time"

	"gpufaas/internal/chaos"
	"gpufaas/internal/core"
	"gpufaas/internal/experiments"
	"gpufaas/internal/models"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	Name string
	// Why is the reason the workload exists: which layers it loads, and
	// what it lets a change be judged against.
	Why string
	runner
}

// runner measures a workload: a simWorkload or a liveWorkload.
type runner interface {
	run(runOpts) (*result, error)
}

// The sim shapes are sized for a 12 s window on two cores (an iteration of
// 0.5–2.5 s, so several fit). Short shapes are what the tests run.

// fleetReplay is the scale sweep's operating point: LALBO3, streaming
// replay, per-GPU arrival rate held at the paper's 325 requests/minute per
// 12 GPUs.
func fleetReplay(gpus, workingSet, minutes int, seed int64) experiments.RunParams {
	return experiments.RunParams{
		Policy:      core.LALBO3,
		WorkingSet:  workingSet,
		Nodes:       gpus / 4,
		GPUsPerNode: 4,
		Streaming:   true,
		Workload: experiments.WorkloadParams{
			Minutes:           minutes,
			RequestsPerMinute: gpus * 325 / 12,
			WorkingSet:        workingSet,
			Batch:             models.EvalBatchSize,
			Seed:              seed,
		},
	}
}

// paperGrid is the Fig. 4–6 grid — {LB, LALB, LALBO3} x working set
// {15, 25, 35} on the paper's 12-GPU testbed, 6 minutes at 325 rpm,
// materialized replay — over consecutive seeds.
func paperGrid(seed int64, short bool) []experiments.RunParams {
	seeds := 6
	if short {
		seeds = 1
	}
	var runs []experiments.RunParams
	for s := 0; s < seeds; s++ {
		for _, ws := range experiments.PaperWorkingSets {
			for _, pol := range experiments.PaperPolicies {
				wp := experiments.DefaultWorkload(ws)
				wp.Seed = seed + int64(s)
				runs = append(runs, experiments.RunParams{Policy: pol, WorkingSet: ws, Workload: wp})
			}
		}
	}
	return runs
}

func scale1024(seed int64, short bool) []experiments.RunParams {
	if short {
		return []experiments.RunParams{fleetReplay(64, 64, 2, seed)}
	}
	return []experiments.RunParams{fleetReplay(1024, 512, 6, seed)}
}

// churn64 keeps 256 models on 64 GPUs — far more than fit — under crashes,
// stragglers, retries and batching. The fault seed is fixed: the workload
// seed varies the arrivals under one fault schedule.
func churn64(seed int64, short bool) []experiments.RunParams {
	minutes := 180
	if short {
		minutes = 10
	}
	p := fleetReplay(64, 256, minutes, seed)
	p.MaxBatch = 8
	p.Chaos = &chaos.Config{
		Seed:            42,
		MTBF:            2 * time.Hour,
		MTTR:            2 * time.Minute,
		StragglerEvery:  4 * time.Minute,
		StragglerFactor: 3,
		StragglerWindow: 30 * time.Second,
		Horizon:         time.Duration(minutes+2) * time.Minute,
	}
	p.Retry = core.RetryPolicy{MaxAttempts: 3}
	return []experiments.RunParams{p}
}

func cellsK4(seed int64, short bool) []experiments.RunParams {
	if short {
		return []experiments.RunParams{fleetReplay(64, 64, 2, seed)}
	}
	return []experiments.RunParams{fleetReplay(1024, 512, 18, seed)}
}

var workloads = []workload{
	{
		Name:   "sim-paper-grid",
		Why:    "Regenerating the paper's figures: many small runs, so per-run set-up (trace build, cluster.New, report) and gpumgr/cache dominate; core is ~6%, so a scheduler-only change predicts no move",
		runner: simWorkload{runs: paperGrid},
	},
	{
		Name:   "sim-scale-1024",
		Why:    "One 1024-GPU streaming replay, hit-heavy (miss < 1%): core placement is most of the CPU and set-up is small, so scheduler, idle-set and backend-view changes show here",
		runner: simWorkload{runs: scale1024},
	},
	{
		Name:   "sim-churn-64",
		Why:    "The same scheduler and cache driven the other way: miss ~0.6, evictions, O3 skip search, batch coalescing, crash and requeue, ordinal growth; a hit-path gain paid for on the miss path shows here",
		runner: simWorkload{runs: churn64},
	},
	{
		Name:   "sim-cells-k4",
		Why:    "1024 GPUs sharded into 4 cells on min(nproc,4) workers: the only sim workload that can use more than one core, and trace streaming cost is paid once per cell",
		runner: simWorkload{runs: cellsK4, cells: 4},
	},
	{
		Name:   "live-http-infer",
		Why:    "The invoke a user sees: real HTTP POST to a GPU function (resnet18, batch 1); ~90% is the nn CPU forward pass, so nn/Predictor work shows here and control-plane work predicts no move",
		runner: liveWorkload{kind: liveHTTPInfer, timeScale: 0.001, models: []string{"resnet18"}, warmup: 20, sampleCap: 1 << 10, spanEvery: 1},
	},
	{
		Name:   "live-http-echo",
		Why:    "Real HTTP POST to an echo function: bypasses InferenceClient, cluster and nn, leaving net/http, registry, admission and the datastore record; scheduler changes must not move it",
		runner: liveWorkload{kind: liveHTTPEcho, timeScale: 0.001, warmup: 2000, sampleCap: 1 << 17, spanEvery: 32},
	},
	{
		Name: "live-predict",
		Why:  "InferenceClient.Predict alone, 4 resident models at 1e-6 time scale: the live control plane (client lock, arena, Submit, scheduler, gpumgr, timer, Route) with no HTTP and no nn above it",
		runner: liveWorkload{kind: livePredict, timeScale: 1e-6, models: []string{"squeezenet1.1", "resnet18", "resnet34", "alexnet"},
			// 20,000 warm-up invokes, about 0.1 s: with 2,000 the set-up
			// is 12 ms, and what this box adds to one (8-21 ms between
			// runs of the same code) is most of what setup_s then reads.
			warmup: 20000, sampleCap: 1 << 20, spanEvery: 256},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
