package wire

import (
	"fmt"
	"io"
)

// Control frames extend the data-plane grammar (hello/model/reply) with the
// training service's control plane: fleet workers joining a daemon, job
// leases being assigned and returned, and clients submitting, polling and
// cancelling jobs. Control frames ride the same kind-prefixed stream as the
// data frames; a connection's first frame tells the daemon which protocol
// the peer speaks (KindJoin = fleet worker, KindSubmit/Status/Cancel =
// client).
//
// Frame bodies (all integers little-endian):
//
//	join   := blob(name)
//	assign := job:uint64 index:uint32 port:uint32 blob(spec)
//	idle   := job:uint64 blob(err)
//	submit := blob(spec)
//	status := job:uint64
//	cancel := job:uint64
//	state  := job:uint64 blob(err) blob(status)
//	blob   := len:uint32 body            (opaque bytes, len <= 1 MiB)
//
// Control payloads are small (a serialized job spec, a JSON status); the
// blob cap keeps a corrupted length prefix from provoking a huge
// allocation.

// Control frame kinds (continuing the data-plane numbering).
const (
	KindJoin   byte = 4
	KindAssign byte = 5
	KindIdle   byte = 6
	KindSubmit byte = 7
	KindStatus byte = 8
	KindCancel byte = 9
	KindState  byte = 10
)

// maxBlobLen caps control-frame blob bodies (specs and statuses are a few
// KB; 1 MiB is generous).
const maxBlobLen = 1 << 20

// Join is a fleet worker's first frame after dialing a service daemon.
type Join struct {
	// Name is a human-readable worker label for the daemon's /workers view.
	Name string
}

// Assign leases a fleet worker to one job: the worker must rebuild the job
// from Spec, serve worker Index of its cluster against the data-plane
// listener at Port (on the daemon's host), and report back with an Idle
// frame when the lease ends.
type Assign struct {
	// Job identifies the lease; echoed back in the worker's Idle frame.
	Job uint64
	// Index is the worker's index within the job's cluster (0..n-1).
	Index int
	// Port is the job's data-plane TCP port on the host the worker dialed.
	Port int
	// Spec is the serialized job spec (core.EncodeSpec output).
	Spec []byte
}

// Idle reports a finished lease: the worker has left the job's data plane
// and is available for the next assignment.
type Idle struct {
	Job uint64
	// Err is empty for a clean lease end, else the worker-side error text.
	Err string
}

// Submit asks the daemon to accept a new job.
type Submit struct {
	// Spec is the serialized job spec (core.EncodeSpec output).
	Spec []byte
}

// State is the daemon's reply to every client request: the job it concerns,
// an error ("" = success) and, on success, the JSON-encoded job status.
type State struct {
	Job uint64
	// Err is the daemon-side failure text ("" = request succeeded).
	Err string
	// Status is the JSON-encoded job status (empty when Err is set).
	Status []byte
}

// u64 writes a little-endian uint64 (job IDs).
func (w *Writer) u64(v uint64) error { return w.i64(int64(v)) }

func (r *Reader) u64() (uint64, error) {
	v, err := r.i64()
	return uint64(v), err
}

// blob writes a length-prefixed opaque byte body.
func (w *Writer) blob(b []byte) error {
	if len(b) > maxBlobLen {
		return fmt.Errorf("wire: blob length %d exceeds limit", len(b))
	}
	if err := w.u32(uint32(len(b))); err != nil {
		return err
	}
	_, err := w.bw.Write(b)
	return err
}

// blob reads a length-prefixed opaque byte body.
func (r *Reader) blob() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > maxBlobLen {
		return nil, fmt.Errorf("wire: blob length %d exceeds limit", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.br, b); err != nil {
		return nil, err
	}
	return b, nil
}

// WriteJoin emits a fleet-join frame and flushes.
func (w *Writer) WriteJoin(j Join) error {
	if err := w.u8(KindJoin); err != nil {
		return err
	}
	if err := w.blob([]byte(j.Name)); err != nil {
		return err
	}
	return w.bw.Flush()
}

// ReadJoin decodes a join body (after NextKind returned KindJoin).
func (r *Reader) ReadJoin() (Join, error) {
	name, err := r.blob()
	if err != nil {
		return Join{}, err
	}
	return Join{Name: string(name)}, nil
}

// WriteAssign emits a lease-assignment frame and flushes.
func (w *Writer) WriteAssign(a Assign) error {
	if err := w.u8(KindAssign); err != nil {
		return err
	}
	if err := w.u64(a.Job); err != nil {
		return err
	}
	if err := w.u32(uint32(a.Index)); err != nil {
		return err
	}
	if err := w.u32(uint32(a.Port)); err != nil {
		return err
	}
	if err := w.blob(a.Spec); err != nil {
		return err
	}
	return w.bw.Flush()
}

// ReadAssign decodes an assignment body (after NextKind returned
// KindAssign).
func (r *Reader) ReadAssign() (Assign, error) {
	job, err := r.u64()
	if err != nil {
		return Assign{}, err
	}
	index, err := r.u32()
	if err != nil {
		return Assign{}, err
	}
	port, err := r.u32()
	if err != nil {
		return Assign{}, err
	}
	spec, err := r.blob()
	if err != nil {
		return Assign{}, err
	}
	return Assign{Job: job, Index: int(index), Port: int(port), Spec: spec}, nil
}

// WriteIdle emits a lease-end frame and flushes.
func (w *Writer) WriteIdle(i Idle) error {
	if err := w.u8(KindIdle); err != nil {
		return err
	}
	if err := w.u64(i.Job); err != nil {
		return err
	}
	if err := w.blob([]byte(i.Err)); err != nil {
		return err
	}
	return w.bw.Flush()
}

// ReadIdle decodes an idle body (after NextKind returned KindIdle).
func (r *Reader) ReadIdle() (Idle, error) {
	job, err := r.u64()
	if err != nil {
		return Idle{}, err
	}
	msg, err := r.blob()
	if err != nil {
		return Idle{}, err
	}
	return Idle{Job: job, Err: string(msg)}, nil
}

// WriteSubmit emits a job-submission frame and flushes.
func (w *Writer) WriteSubmit(s Submit) error {
	if err := w.u8(KindSubmit); err != nil {
		return err
	}
	if err := w.blob(s.Spec); err != nil {
		return err
	}
	return w.bw.Flush()
}

// ReadSubmit decodes a submission body (after NextKind returned
// KindSubmit).
func (r *Reader) ReadSubmit() (Submit, error) {
	spec, err := r.blob()
	if err != nil {
		return Submit{}, err
	}
	return Submit{Spec: spec}, nil
}

// WriteStatus emits a status-request frame and flushes.
func (w *Writer) WriteStatus(job uint64) error {
	if err := w.u8(KindStatus); err != nil {
		return err
	}
	if err := w.u64(job); err != nil {
		return err
	}
	return w.bw.Flush()
}

// WriteCancel emits a cancel-request frame and flushes.
func (w *Writer) WriteCancel(job uint64) error {
	if err := w.u8(KindCancel); err != nil {
		return err
	}
	if err := w.u64(job); err != nil {
		return err
	}
	return w.bw.Flush()
}

// ReadJobID decodes the body of a status or cancel request (after NextKind
// returned KindStatus or KindCancel).
func (r *Reader) ReadJobID() (uint64, error) { return r.u64() }

// WriteState emits a daemon response frame and flushes.
func (w *Writer) WriteState(s State) error {
	if err := w.u8(KindState); err != nil {
		return err
	}
	if err := w.u64(s.Job); err != nil {
		return err
	}
	if err := w.blob([]byte(s.Err)); err != nil {
		return err
	}
	if err := w.blob(s.Status); err != nil {
		return err
	}
	return w.bw.Flush()
}

// ReadState decodes a response body (after NextKind returned KindState).
func (r *Reader) ReadState() (State, error) {
	job, err := r.u64()
	if err != nil {
		return State{}, err
	}
	msg, err := r.blob()
	if err != nil {
		return State{}, err
	}
	status, err := r.blob()
	if err != nil {
		return State{}, err
	}
	return State{Job: job, Err: string(msg), Status: status}, nil
}
