package main

import (
	"bytes"
	"runtime"
	"time"

	"bcc/internal/core"
	"bcc/internal/vecmath"
	"bcc/internal/wire"
)

// wire and vecmath sit behind concrete types the engine builds itself, so
// there is no seam to decorate. Their numbers come from replaying their
// public calls on one goroutine at exactly the workload's shapes: the frames
// a worker of this job would write, the rows of this job's matrix.

const (
	frameReps = 64   // frames written and read back per replay
	kernelNNZ = 32e6 // stored entries each kernel replay streams
)

var sink float64 // keeps the kernel replays' results alive

func perOp(d time.Duration, ops int, unit time.Duration) float64 {
	return float64(d) / float64(unit) / float64(ops)
}

// replayMetrics measures the wire.* and vecmath.* per-layer metrics for job.
func replayMetrics(job *core.Job) (map[string]metric, error) {
	dim := job.Model.Dim()
	pc := payloadConfig(job.Spec)

	// Worker 0's reply to the first query, encoded by the job's own plan.
	query := make([]float64, dim)
	assign := job.Plan.Assignments()[0]
	parts := make([][]float64, len(assign))
	for k, u := range assign {
		parts[k] = make([]float64, dim)
		job.Model.SubsetGradient(query, job.Units[u], parts[k])
	}
	reply := wire.Reply{Iter: 1, Worker: 0, Compute: 1e-3}
	for _, m := range job.Plan.EncodeInto(nil, 0, parts, nil) {
		reply.Msgs = append(reply.Msgs, wire.Msg{From: m.From, Tag: m.Tag, Units: m.Units, Vec: m.Vec, Imag: m.Imag})
	}

	var ms0, ms1 runtime.MemStats
	var buf bytes.Buffer
	wr := wire.NewWriter(&buf)
	wr.SetPayload(pc)
	if err := wr.WriteReply(reply); err != nil { // sizes the writer's staging
		return nil, err
	}
	replyBytes := buf.Len()
	buf.Reset()
	buf.Grow(frameReps * replyBytes) // growing the sink is not the codec's cost

	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < frameReps; i++ {
		if err := wr.WriteReply(reply); err != nil {
			return nil, err
		}
	}
	writeReply := time.Since(start)

	// The master reads payloads into pooled buffers; free plays the pool.
	var free [][]float64
	alloc := func(n int) []float64 {
		if k := len(free); k > 0 && len(free[k-1]) == n {
			v := free[k-1]
			free = free[:k-1]
			return v
		}
		return nil
	}
	rd := wire.NewReader(bytes.NewReader(buf.Bytes()))
	rd.SetPayload(pc)
	var scratch wire.Reply
	start = time.Now()
	for i := 0; i < frameReps; i++ {
		if _, err := rd.NextKind(); err != nil {
			return nil, err
		}
		if err := rd.ReadReplyInto(&scratch, alloc); err != nil {
			return nil, err
		}
		for _, m := range scratch.Msgs {
			if m.Vec != nil {
				free = append(free, m.Vec)
			}
			if m.Imag != nil {
				free = append(free, m.Imag)
			}
		}
	}
	readReply := time.Since(start)
	runtime.ReadMemStats(&ms1)

	buf.Reset()
	model := wire.Model{Iter: 1, Query: query}
	if err := wr.WriteModel(model); err != nil {
		return nil, err
	}
	modelBytes := buf.Len()
	buf.Reset()
	buf.Grow(frameReps * modelBytes)
	start = time.Now()
	for i := 0; i < frameReps; i++ {
		if err := wr.WriteModel(model); err != nil {
			return nil, err
		}
	}
	writeModel := time.Since(start)
	rd = wire.NewReader(bytes.NewReader(buf.Bytes()))
	rd.SetPayload(pc)
	start = time.Now()
	for i := 0; i < frameReps; i++ {
		if _, err := rd.NextKind(); err != nil {
			return nil, err
		}
		if _, err := rd.ReadModel(); err != nil {
			return nil, err
		}
	}
	readModel := time.Since(start)

	// Payload codec: only a lossy codec does any work per vector.
	var sel, apply time.Duration
	if pc.Codec != wire.PayloadRaw64 {
		coder := wire.NewVecCoder(pc)
		vec := reply.Msgs[0].Vec
		tmp := make([]float64, len(vec))
		for i := 0; i < frameReps; i++ {
			start = time.Now()
			coder.Select(vec)
			sel += time.Since(start)
			copy(tmp, vec)
			start = time.Now()
			coder.ApplyReply(tmp)
			apply += time.Since(start)
		}
	}

	// Row kernels over the job's own matrix, dense or CSR.
	x := job.Data.X
	rows, _ := x.Dims()
	passes := int(kernelNNZ/float64(x.NNZ())) + 1
	dst := make([]float64, dim)
	w := make([]float64, dim)
	vecmath.Fill(w, 0.5)
	start = time.Now()
	for p := 0; p < passes; p++ {
		for i := 0; i < rows; i++ {
			sink += x.RowDot(i, w)
		}
	}
	rowDot := time.Since(start)
	start = time.Now()
	for p := 0; p < passes; p++ {
		for i := 0; i < rows; i++ {
			x.RowAxpy(1e-9, i, dst)
		}
	}
	rowAxpy := time.Since(start)
	sink += dst[0]
	nnz := passes * x.NNZ()

	return map[string]metric{
		"wire.write_reply_us":             {perOp(writeReply, frameReps, time.Microsecond), "us"},
		"wire.read_reply_us":              {perOp(readReply, frameReps, time.Microsecond), "us"},
		"wire.write_model_us":             {perOp(writeModel, frameReps, time.Microsecond), "us"},
		"wire.read_model_us":              {perOp(readModel, frameReps, time.Microsecond), "us"},
		"wire.reply_frame_bytes":          {float64(replyBytes), "B"},
		"wire.model_frame_bytes":          {float64(modelBytes), "B"},
		"wire.allocs_per_reply_roundtrip": {float64(ms1.Mallocs-ms0.Mallocs) / frameReps, "count"},
		"wire.topk_select_us_per_vec":     {perOp(sel, frameReps, time.Microsecond), "us"},
		"wire.codec_apply_us_per_vec":     {perOp(apply, frameReps, time.Microsecond), "us"},
		"vecmath.rowdot_ns_per_nnz":       {perOp(rowDot, nnz, time.Nanosecond), "ns"},
		"vecmath.rowaxpy_ns_per_nnz":      {perOp(rowAxpy, nnz, time.Nanosecond), "ns"},
	}, nil
}

// payloadConfig resolves the spec's payload knobs the way the cluster layer
// does (top-k defaults to K = ceil(p/16)).
func payloadConfig(s core.Spec) wire.PayloadConfig {
	codec, _ := wire.ParsePayloadCodec(string(s.Payload)) // NewJob validated the name
	pc := wire.PayloadConfig{Codec: codec, Chunk: s.WireChunk}
	if codec == wire.PayloadTopK {
		pc.TopK = s.TopK
		if pc.TopK == 0 {
			pc.TopK = (s.Dim + 15) / 16
		}
	}
	return pc
}
