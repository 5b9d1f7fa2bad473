package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"

	"bcc/internal/cluster"
	"bcc/internal/core"
	"bcc/internal/wire"
)

// ServeWorker joins a daemon's fleet and serves leases until ctx is
// canceled or the daemon closes the control connection (a clean EOF after a
// drain returns nil). For each Assign frame the worker rebuilds the job
// from the spec bytes — deterministically, so its plan, units and model
// match the daemon's bit for bit — dials the job's private data-plane port
// and runs the standard worker protocol; when the lease ends it reports
// Idle and waits for the next assignment.
func ServeWorker(ctx context.Context, addr, name string) error {
	var dialer net.Dialer
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("service: worker join %s: %w", addr, err)
	}
	// Cancellation unblocks the frame reads below by closing the socket.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	defer conn.Close()
	w := wire.NewWriter(conn)
	if err := w.WriteJoin(wire.Join{Name: name}); err != nil {
		return fmt.Errorf("service: worker join: %w", err)
	}
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		host = addr
	}
	r := wire.NewReader(conn)
	for {
		k, err := r.NextKind()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, io.EOF) {
				return nil // daemon closed the fleet: clean exit
			}
			return fmt.Errorf("service: worker control read: %w", err)
		}
		if k != wire.KindAssign {
			return fmt.Errorf("service: worker got unexpected frame kind %d", k)
		}
		a, err := r.ReadAssign()
		if err != nil {
			return fmt.Errorf("service: worker reading assignment: %w", err)
		}
		errText := ""
		if err := serveLease(host, a); err != nil {
			errText = err.Error()
		}
		if err := w.WriteIdle(wire.Idle{Job: a.Job, Err: errText}); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("service: worker reporting idle: %w", err)
		}
	}
}

// serveLease runs one assignment end to end: rebuild the job from the spec,
// assume the assigned worker index, dial the job's data plane and serve
// until the engine's shutdown broadcast. Errors are reported back on the
// control plane (in the Idle frame), never fatal to the fleet membership.
func serveLease(host string, a wire.Assign) error {
	spec, err := core.DecodeSpec(a.Spec)
	if err != nil {
		return err
	}
	job, err := core.NewJob(spec)
	if err != nil {
		return err
	}
	return cluster.DialAndServeWorker(net.JoinHostPort(host, strconv.Itoa(a.Port)), job.WorkerEnv(a.Index))
}
