package cluster

import (
	"sync"

	"bcc/internal/coding"
)

// BufferPool recycles the gradient-sized []float64 buffers that flow through
// the iteration data plane: workers (or the wire codec) draw message
// payloads and queries from the pool, the master returns payloads once an
// iteration's decode is finished. In steady state every iteration therefore
// runs on the same handful of buffers and performs no heap allocations.
//
// Ownership protocol (see also the package doc's "Performance" section):
//
//  1. An encoder (Plan.EncodeInto) or the wire codec draws a buffer and
//     fully overwrites it — Buf returns arbitrary contents, never zeroes.
//  2. The buffer travels inside a coding.Message to the master. From that
//     moment the producer must not touch it again.
//  3. The master (engine loop or transport) returns it via Put after the
//     iteration that consumed it has decoded — never earlier, because the
//     decoder may retain the buffer until DecodeInto runs.
//  4. Messages that never reach the decoder (dropped, stale, or arriving
//     after the decode point) are returned by whichever component discarded
//     them.
//  5. A worker reads each broadcast query into a buffer from its pool;
//     runWorker puts it back as soon as the query's round has run
//     (or a newer query supersedes it, queued or mid-sleep). A worker draws
//     payload buffers only for a reply it is about to send.
//
// The free list is a mutex-guarded stack rather than a sync.Pool: putting a
// slice header into sync.Pool boxes it into an interface, which allocates on
// every Put and would defeat the zero-allocation steady state the pool
// exists for. The stack's backing array is retained across iterations, so
// steady-state Get/Put touch no allocator at all. A nil *BufferPool is valid
// and degrades to plain allocation.
//
// The pool also recycles the master's reply Msgs slices (getMsgs/putMsgs):
// the connection reader that hands a reply to the master builds its Msgs in
// a recycled slice, and the master returns the
// slice once the engine has offered the messages or discarded the reply.
type BufferPool struct {
	dim  int
	max  int // free-list cap: beyond it, Put drops the buffer for the GC
	mu   sync.Mutex
	free [][]float64
	msgs [][]coding.Message // empty Msgs slices, capped at max like free
}

// defaultPoolCap bounds the free list when the caller does not size it; a
// run's in-flight buffer count is a few per alive worker, so this covers
// large clusters while keeping worst-case retention modest.
const defaultPoolCap = 1024

// NewBufferPool creates a pool of length-dim buffers retaining at most max
// free buffers (max <= 0 selects a default). The cap matters when producers
// and consumers are unbalanced — e.g. a master receiving from out-of-process
// workers returns buffers nobody ever draws — so retention stays bounded.
func NewBufferPool(dim, max int) *BufferPool {
	if dim <= 0 {
		panic("cluster: NewBufferPool with non-positive dim")
	}
	if max <= 0 {
		max = defaultPoolCap
	}
	return &BufferPool{dim: dim, max: max}
}

// Dim returns the pooled buffer length.
func (p *BufferPool) Dim() int {
	if p == nil {
		return 0
	}
	return p.dim
}

// Get returns a length-dim buffer with arbitrary contents; the caller must
// overwrite every element. Falls back to a fresh allocation when the pool is
// empty or nil.
func (p *BufferPool) Get() []float64 {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return b
	}
	p.mu.Unlock()
	return make([]float64, p.dim)
}

// Put returns a buffer to the pool. Nil and foreign-sized buffers (e.g. a
// query vector, or payloads of a differently-sized run) are dropped
// silently, so callers can recycle unconditionally; so are buffers beyond
// the free-list cap.
func (p *BufferPool) Put(b []float64) {
	if p == nil || len(b) != p.dim {
		return
	}
	p.mu.Lock()
	if len(p.free) < p.max {
		p.free = append(p.free, b)
	}
	p.mu.Unlock()
}

// getMsgs returns an empty message slice, with a recycled backing array when
// one is free (nil otherwise, or on a nil pool).
func (p *BufferPool) getMsgs() []coding.Message {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.msgs)
	if n == 0 {
		return nil
	}
	m := p.msgs[n-1]
	p.msgs[n-1] = nil
	p.msgs = p.msgs[:n-1]
	return m
}

// putMsgs recycles a Msgs slice nobody reads any more. Its elements are
// cleared first, so the free list pins no payload buffer.
func (p *BufferPool) putMsgs(m []coding.Message) {
	if p == nil || cap(m) == 0 {
		return
	}
	clear(m[:cap(m)])
	p.mu.Lock()
	if len(p.msgs) < p.max {
		p.msgs = append(p.msgs, m[:0])
	}
	p.mu.Unlock()
}

// Buf implements coding.Buffers, letting the pool be handed directly to
// Plan.EncodeInto. Requests for foreign sizes fall back to allocation.
func (p *BufferPool) Buf(n int) []float64 {
	if p == nil || n != p.dim {
		return make([]float64, n)
	}
	return p.Get()
}
