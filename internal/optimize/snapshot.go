package optimize

import (
	"fmt"
	"math"

	"bcc/internal/vecmath"
)

// State is a serializable snapshot of an optimizer, sufficient to resume
// training bit-for-bit (see internal/checkpoint). Kind discriminates the
// algorithm; unused fields stay zero.
type State struct {
	Kind  string // "gd" or "nesterov"
	T     int
	Theta float64
	W     []float64
	WPrev []float64
}

// Snapshotter is implemented by optimizers that support checkpoint/resume.
type Snapshotter interface {
	Snapshot() State
	Restore(State) error
}

// Snapshot implements Snapshotter.
func (g *GD) Snapshot() State {
	return State{Kind: "gd", T: g.t, W: vecmath.Clone(g.w)}
}

// Restore implements Snapshotter. The step-size schedule is not part of the
// state; the restored optimizer keeps its own schedule and resumes it at
// the snapshot's iteration count.
func (g *GD) Restore(s State) error {
	if s.Kind != "gd" {
		return fmt.Errorf("optimize: restoring %q state into GD", s.Kind)
	}
	if len(s.W) != len(g.w) {
		return fmt.Errorf("optimize: GD restore dimension %d != %d", len(s.W), len(g.w))
	}
	if s.T < 0 {
		return fmt.Errorf("optimize: GD restore iteration count %d is negative", s.T)
	}
	copy(g.w, s.W)
	g.t = s.T
	return nil
}

// Snapshot implements Snapshotter.
func (n *Nesterov) Snapshot() State {
	return State{
		Kind:  "nesterov",
		T:     n.t,
		Theta: n.theta,
		W:     vecmath.Clone(n.w),
		WPrev: vecmath.Clone(n.wPrev),
	}
}

// Restore implements Snapshotter. Theta must be finite and at least 1: the
// FISTA sequence starts at 1 and only grows.
func (n *Nesterov) Restore(s State) error {
	if s.Kind != "nesterov" {
		return fmt.Errorf("optimize: restoring %q state into Nesterov", s.Kind)
	}
	if len(s.W) != len(n.w) || len(s.WPrev) != len(n.wPrev) {
		return fmt.Errorf("optimize: Nesterov restore dimension %d/%d != %d", len(s.W), len(s.WPrev), len(n.w))
	}
	if s.T < 0 {
		return fmt.Errorf("optimize: Nesterov restore iteration count %d is negative", s.T)
	}
	if !(s.Theta >= 1) || math.IsInf(s.Theta, 1) {
		return fmt.Errorf("optimize: Nesterov restore theta %v is not a finite value >= 1", s.Theta)
	}
	copy(n.w, s.W)
	copy(n.wPrev, s.WPrev)
	n.theta = s.Theta
	n.t = s.T
	return nil
}

var (
	_ Snapshotter = (*GD)(nil)
	_ Snapshotter = (*Nesterov)(nil)
)
