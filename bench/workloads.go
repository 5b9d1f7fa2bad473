package main

import (
	"fmt"

	"bcc/internal/cluster"
	"bcc/internal/core"
	"bcc/internal/experiments"
	"bcc/internal/rngutil"
)

// workload is one named input set of the benchmark. Every workload runs the
// product's loopback-tcp runtime (wire frames, Nesterov, barrier mode) as a
// closed loop with one client: the master broadcasts query k+1 only after
// iteration k decodes.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json carries
	// the same text).
	why string
	// spec is the job description without Seed, Iterations and Latency.
	spec core.Spec
	// pointsPerUnit is DataPoints / Examples, kept beside the spec because the
	// EC2 latency model is calibrated per unit.
	pointsPerUnit int
	// ec2 injects experiments.EC2Latency shift-exponential straggler delays,
	// slept at spec.TimeScale real seconds per modelled second.
	ec2 bool
	// warmup is the number of untimed iterations that open every segment.
	warmup int
	// itersPerSec is the iteration rate on the 2-vCPU reference host; three
	// times it sizes the buffers of a timed segment (see sizes).
	itersPerSec float64
	// gradNormTol is the relative tolerance of the sim-vs-tcp GradNorm check:
	// 0 demands bit-identical values (every bcc workload), cyclicmds decodes
	// from whichever threshold-many workers answered first and is equal only
	// to rounding.
	gradNormTol float64
	// exactHeard, when non-zero, is the recovery threshold every iteration
	// must report.
	exactHeard int
}

// segments is the number of independent jobs a run is split into. Each is
// set up from scratch — data, placement, listeners, handshakes, warm-up —
// under its own seed drawn from the run's seed, so setup_s is a median of
// several set-ups and the iteration percentiles pool several random bcc
// placements instead of hanging on one.
const segments = 3

// verifyIters is how many leading iterations are compared against the sim
// runtime.
const verifyIters = 20

func shape(scheme core.Scheme, n, r, dim, pointsPerUnit int) core.Spec {
	return core.Spec{
		Scheme:     scheme,
		Examples:   n,
		Workers:    n,
		Load:       r,
		Dim:        dim,
		DataPoints: n * pointsPerUnit,
	}
}

func workloads() []workload {
	straggler := shape(core.SchemeBCC, 50, 10, 800, 10)
	straggler.TimeScale = 0.5
	topk := shape(core.SchemeBCC, 8, 2, 16384, 2)
	topk.Payload = core.PayloadTopK
	sparse := shape(core.SchemeBCC, 8, 2, 4096, 400)
	sparse.Density = 0.05
	return []workload{
		{
			name:          "ec2-straggler",
			why:           "paper Fig. 4 scenario one (bcc n=m=50 r=10, EC2 shift-exponential delays): waiting for the threshold-th of 50 replies dominates, kernels and decode do not",
			spec:          straggler,
			pointsPerUnit: 10,
			ec2:           true,
			warmup:        20,
			itersPerSec:   20,
		},
		{
			name:          "dataplane-mds",
			why:           "cyclicmds n=8 r=3 p=16384 raw64: 3 MB/iter through wire+tcp, complex MDS decode and optimizer update do the work, gradients are negligible",
			spec:          shape(core.SchemeCyclicMDS, 8, 3, 16384, 2),
			pointsPerUnit: 2,
			warmup:        200,
			itersPerSec:   400,
			gradNormTol:   1e-9,
			exactHeard:    6,
		},
		{
			name:          "dataplane-topk",
			why:           "bcc n=8 r=2 p=16384 top-k payload: worker-side selection and index/value frames with a trivial decode, so a gain for dense frames that costs sparse ones shows",
			spec:          topk,
			pointsPerUnit: 2,
			warmup:        200,
			itersPerSec:   325,
		},
		{
			name:          "compute-dense",
			why:           "bcc n=8 r=2 p=1024, 256 points/unit dense (16 MB): worker gradient kernels are the bulk of CPU, 8 KB messages make wire and decode noise-level",
			spec:          shape(core.SchemeBCC, 8, 2, 1024, 256),
			pointsPerUnit: 256,
			warmup:        200,
			itersPerSec:   375,
		},
		{
			name:          "compute-sparse",
			why:           "bcc n=8 r=2 p=4096 density 0.05, 400 points/unit (8 MB CSR, cache-resident): the O(nnz) CSR kernels, protected from dense-kernel changes",
			spec:          sparse,
			pointsPerUnit: 400,
			warmup:        200,
			itersPerSec:   450,
		},
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// segmentSeed derives segment seg's job seed from the run's seed.
func segmentSeed(seed uint64, seg int) uint64 {
	return rngutil.New(seed).SplitN(seg + 1)[seg].Uint64()
}

// jobSpec completes the workload's spec for one job: seed, iteration count,
// runtime and — on the straggler workload — a latency model drawn from the
// same seed. The latency object holds per-worker draw state, so every job
// (tcp pass, traced pass, sim reference) gets a fresh one.
func (w workload) jobSpec(seed uint64, iterations int, rt core.Runtime) (core.Spec, error) {
	s := w.spec
	s.Seed = seed
	s.Iterations = iterations
	s.Runtime = rt
	if w.ec2 {
		lat, err := experiments.EC2Latency(s.Workers, w.pointsPerUnit, rngutil.New(seed^0xec2))
		if err != nil {
			return core.Spec{}, err
		}
		s.Latency = lat
	}
	return s, nil
}

// clusterConfig lowers a materialized job to the engine's Config the way
// core does for the knobs the benchmark uses.
func clusterConfig(job *core.Job) *cluster.Config {
	s := job.Spec
	return &cluster.Config{
		Plan:       job.Plan,
		Model:      job.Model,
		Units:      job.Units,
		Opt:        job.Opt,
		Iterations: s.Iterations,
		Latency:    s.Latency,
		Comm:       cluster.CommOptions{Payload: string(s.Payload), TopK: s.TopK, Chunk: s.WireChunk},
	}
}

// liveOptions is the tcp runtime exactly as core.RuntimeTCP starts it, plus
// Drain so the measured wire totals include the straggler tail.
func liveOptions(s core.Spec) cluster.LiveOptions {
	return cluster.LiveOptions{TimeScale: s.TimeScale, TCP: true, Codec: "wire", Drain: true}
}
