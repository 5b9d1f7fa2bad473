package coding

import (
	"math"
	"testing"

	"bcc/internal/rngutil"
)

// TestCoverageDropsForeignMessages offers, ahead of every worker's honest
// messages, ones the plan never gives that worker: a tag of -1, a tag equal
// to the slot count, an in-range tag another worker owns, an owned tag with
// no payload, and an owned tag from a sender index past n. Each must be
// dropped — not kept, heard or counted — so the decode, WorkersHeard and
// UnitsReceived equal those of the honest messages alone.
//
// The eight coverage schemes run with idle workers included (partitioned
// workers 1 and 5 hold no data); slots is the tag range [0, slots).
func TestCoverageDropsForeignMessages(t *testing.T) {
	cases := []struct {
		s              Scheme
		m, n, r, slots int
	}{
		{BCC{}, 12, 24, 3, 4},
		{BCCApprox{}, 12, 24, 3, 4},
		{BCCMulti{}, 12, 24, 4, 6},
		{Fractional{}, 12, 12, 3, 4},
		{Randomized{}, 12, 24, 3, 12},
		{Uncoded{}, 12, 5, 3, 5},
		{GeneralizedBCC{Loads: []int{4, 3, 4, 2, 3, 4}}, 12, 6, 4, 12},
		{Partitioned{Loads: []int{3, 0, 4, 2, 3, 0}}, 12, 6, 4, 6},
	}
	for i, c := range cases {
		name := c.s.Name()
		t.Run(name, func(t *testing.T) {
			p, err := c.s.Plan(c.m, c.n, c.r, rngutil.New(uint64(900+i)))
			if err != nil {
				t.Fatal(err)
			}
			m, n := c.m, c.n
			gs, want := makeGradients(m, rngutil.New(77))
			// owned[w] lists the tags of worker w's honest messages.
			owned := make([][]int, n)
			for w := range owned {
				for _, msg := range encodeWorker(p, w, gs) {
					if msg.Tag < 0 || msg.Tag >= c.slots {
						t.Fatalf("worker %d sends tag %d outside [0, %d)", w, msg.Tag, c.slots)
					}
					owned[w] = append(owned[w], msg.Tag)
				}
			}
			owns := func(w, tag int) bool {
				for _, o := range owned[w] {
					if o == tag {
						return true
					}
				}
				return false
			}
			junk := make([]float64, gradDim)
			for i := range junk {
				junk[i] = 1e6
			}
			rogue := func(w int) []Message {
				var msgs []Message
				bad := func(from, tag int, vec []float64) {
					msgs = append(msgs, Message{From: from, Tag: tag, Vec: vec, Units: 1})
				}
				bad(w, -1, junk)
				bad(w, c.slots, junk)
				for v := 0; v < n; v++ {
					if tags := owned[v]; len(tags) > 0 && !owns(w, tags[0]) {
						bad(w, tags[0], junk)
						break
					}
				}
				if tags := owned[w]; len(tags) > 0 {
					bad(w, tags[0], nil)
					bad(n, tags[0], junk)
				}
				return msgs
			}

			fresh := p.NewDecoder()
			for w := 0; w < n; w++ {
				for _, msg := range rogue(w) {
					fresh.Offer(msg)
				}
			}
			if fresh.Decodable() || fresh.WorkersHeard() != 0 || fresh.UnitsReceived() != 0 {
				t.Fatalf("rogue messages alone: decodable=%v heard=%d units=%v, want nothing",
					fresh.Decodable(), fresh.WorkersHeard(), fresh.UnitsReceived())
			}

			honest, polluted := p.NewDecoder(), p.NewDecoder()
			for w := 0; w < n && !honest.Decodable(); w++ {
				for _, msg := range rogue(w) {
					polluted.Offer(msg)
				}
				for _, msg := range encodeWorker(p, w, gs) {
					honest.Offer(msg)
					polluted.Offer(msg)
				}
			}
			if !polluted.Decodable() {
				t.Fatal("honest messages never made the polluted decoder decodable")
			}
			ref, _ := Decode(honest, gradDim)
			got, err := Decode(polluted, gradDim)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("element %d: polluted decode %v, honest %v", i, got[i], ref[i])
				}
			}
			if honest.WorkersHeard() != polluted.WorkersHeard() || honest.UnitsReceived() != polluted.UnitsReceived() {
				t.Fatalf("polluted heard=%d units=%v, honest heard=%d units=%v",
					polluted.WorkersHeard(), polluted.UnitsReceived(), honest.WorkersHeard(), honest.UnitsReceived())
			}
			if name != "bccapprox" {
				checkExact(t, name+" polluted", got, want)
			}
		})
	}
}
