package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"bcc/internal/core"
)

// The HTTP surface is read-only except for job cancellation: operators
// watch the daemon (and Prometheus scrapes it) without speaking the wire
// protocol, while submissions stay on the authenticated-by-locality TCP
// control plane.
func (d *Daemon) httpHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, d.Jobs())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := jobID(w, r)
		if !ok {
			return
		}
		st, err := d.Status(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("POST /jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		id, ok := jobID(w, r)
		if !ok {
			return
		}
		st, err := d.Cancel(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("GET /workers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, d.Workers())
	})
	mux.HandleFunc("GET /metrics", d.metrics)
	return mux
}

func jobID(w http.ResponseWriter, r *http.Request) (core.JobID, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad job id", http.StatusBadRequest)
		return 0, false
	}
	return core.JobID(id), true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// metrics renders the Prometheus text exposition format (stdlib only; the
// format is plain text with one sample per line).
func (d *Daemon) metrics(w http.ResponseWriter, r *http.Request) {
	type levelSample struct {
		job      core.JobID
		level    int
		switches int
	}
	d.mu.Lock()
	states := map[core.JobState]int{}
	iters := 0
	var queueSecs, runSecs float64
	var levelSamples []levelSample
	for _, rec := range d.jobs {
		st := d.statusLocked(rec)
		states[rec.state]++
		iters += rec.iter
		queueSecs += st.QueueSeconds
		runSecs += st.RunSeconds
		if rec.level > 0 {
			levelSamples = append(levelSamples, levelSample{job: rec.id, level: rec.level, switches: rec.levelSwitch})
		}
	}
	depth := len(d.queue)
	idle := len(d.idle)
	busy := len(d.workers) - idle
	d.mu.Unlock()

	var b strings.Builder
	b.WriteString("# HELP bcc_jobs Jobs by lifecycle state.\n# TYPE bcc_jobs gauge\n")
	for _, s := range []core.JobState{core.JobQueued, core.JobRunning, core.JobDone, core.JobFailed, core.JobCanceled, core.JobDegraded} {
		fmt.Fprintf(&b, "bcc_jobs{state=%q} %d\n", s, states[s])
	}
	b.WriteString("# HELP bcc_queue_depth Jobs waiting for admission.\n# TYPE bcc_queue_depth gauge\n")
	fmt.Fprintf(&b, "bcc_queue_depth %d\n", depth)
	b.WriteString("# HELP bcc_workers Fleet workers by lease state.\n# TYPE bcc_workers gauge\n")
	fmt.Fprintf(&b, "bcc_workers{state=\"idle\"} %d\nbcc_workers{state=\"busy\"} %d\n", idle, busy)
	b.WriteString("# HELP bcc_iterations_total Completed engine iterations across all jobs.\n# TYPE bcc_iterations_total counter\n")
	fmt.Fprintf(&b, "bcc_iterations_total %d\n", iters)
	b.WriteString("# HELP bcc_wire_bytes_in_total Bytes received on job data-plane sockets.\n# TYPE bcc_wire_bytes_in_total counter\n")
	fmt.Fprintf(&b, "bcc_wire_bytes_in_total %d\n", d.fleetIn.Load())
	b.WriteString("# HELP bcc_wire_bytes_out_total Bytes sent on job data-plane sockets.\n# TYPE bcc_wire_bytes_out_total counter\n")
	fmt.Fprintf(&b, "bcc_wire_bytes_out_total %d\n", d.fleetOut.Load())
	b.WriteString("# HELP bcc_job_queue_seconds_total Seconds jobs spent waiting for admission.\n# TYPE bcc_job_queue_seconds_total counter\n")
	fmt.Fprintf(&b, "bcc_job_queue_seconds_total %g\n", queueSecs)
	b.WriteString("# HELP bcc_job_run_seconds_total Seconds jobs spent running.\n# TYPE bcc_job_run_seconds_total counter\n")
	fmt.Fprintf(&b, "bcc_job_run_seconds_total %g\n", runSecs)
	if len(levelSamples) > 0 {
		b.WriteString("# HELP bcc_job_level Active redundancy level of adaptive nested jobs.\n# TYPE bcc_job_level gauge\n")
		for _, s := range levelSamples {
			fmt.Fprintf(&b, "bcc_job_level{job=\"%d\"} %d\n", s.job, s.level)
		}
		b.WriteString("# HELP bcc_job_level_switches_total Redundancy level changes between consecutive iterations.\n# TYPE bcc_job_level_switches_total counter\n")
		for _, s := range levelSamples {
			fmt.Fprintf(&b, "bcc_job_level_switches_total{job=\"%d\"} %d\n", s.job, s.switches)
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
