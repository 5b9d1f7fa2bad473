// Package checkpoint persists and restores distributed-training state so a
// long run can survive master restarts. A checkpoint stores the optimizer
// snapshot (weights plus momentum state), the job topology it belongs to,
// and the completed-iteration count; restoring into a job rebuilt from the
// same Spec and seed resumes training bit-for-bit (verified by tests).
//
// Files are written atomically: serialize to <path>.tmp, fsync, rename.
package checkpoint

import (
	"encoding/gob"
	"fmt"
	"os"

	"bcc/internal/optimize"
)

// State is the on-disk checkpoint content.
type State struct {
	// Format versions the encoding; bump on incompatible changes.
	Format int
	// Scheme/M/N/R/Dim/Seed identify the job the checkpoint belongs to;
	// Restore validates them to catch topology mismatches early.
	Scheme string
	M      int
	N      int
	R      int
	Dim    int
	Seed   uint64
	// Completed is the number of finished iterations.
	Completed int
	// Opt is the full optimizer snapshot.
	Opt optimize.State
}

// CurrentFormat is the encoding version this package writes.
const CurrentFormat = 1

// Save writes the state atomically to path.
func Save(path string, s *State) error {
	if s == nil {
		return fmt.Errorf("checkpoint: nil state")
	}
	s.Format = CurrentFormat
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := gob.NewEncoder(f).Encode(s); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	return nil
}

// Load reads a checkpoint from path.
func Load(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	var s State
	if err := gob.NewDecoder(f).Decode(&s); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if s.Format != CurrentFormat {
		return nil, fmt.Errorf("checkpoint: unsupported format %d (want %d)", s.Format, CurrentFormat)
	}
	return &s, nil
}

// Matches reports whether the checkpoint belongs to a job with the given
// topology, returning a descriptive error otherwise.
func (s *State) Matches(scheme string, m, n, r, dim int, seed uint64) error {
	switch {
	case s.Scheme != scheme:
		return fmt.Errorf("checkpoint: scheme %q != job scheme %q", s.Scheme, scheme)
	case s.M != m || s.N != n || s.R != r:
		return fmt.Errorf("checkpoint: topology (m=%d n=%d r=%d) != job (m=%d n=%d r=%d)",
			s.M, s.N, s.R, m, n, r)
	case s.Dim != dim:
		return fmt.Errorf("checkpoint: dim %d != job dim %d", s.Dim, dim)
	case s.Seed != seed:
		return fmt.Errorf("checkpoint: seed %d != job seed %d (placement would differ)", s.Seed, seed)
	}
	return nil
}
