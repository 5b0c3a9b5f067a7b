package obs

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultCapacity is the default total span capacity of a Tracer, split
// across its shards. When a shard overflows, its oldest spans are
// overwritten and Dropped advances — tracing never blocks execution.
const DefaultCapacity = 1 << 14

// Tracer collects spans into per-worker ring buffers. Emission takes one
// shard mutex (shards are sized to GOMAXPROCS, so contention is low). A
// ring grows by append up to its bound and then wraps, so a short trace
// costs only the spans it holds. A nil *Tracer is a valid no-op tracer,
// which is the disabled fast path: Event returns before reading the clock.
type Tracer struct {
	shards  []ring
	next    atomic.Uint64 // round-robin shard cursor
	ids     atomic.Int64
	dropped atomic.Int64
	epoch   time.Time
}

// ring is one bounded circular span buffer with its own lock.
type ring struct {
	mu   sync.Mutex
	buf  []Span // grows to size, then wraps
	size int
	head int // oldest span (next overwrite) once buf is full
}

// NewTracer returns a tracer with the given total span capacity
// (DefaultCapacity when <= 0), sharded across GOMAXPROCS ring buffers.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	shards := runtime.GOMAXPROCS(0)
	if shards < 1 {
		shards = 1
	}
	per := capacity / shards
	if per < 64 {
		per = 64
	}
	t := &Tracer{epoch: time.Now(), shards: make([]ring, shards)}
	for i := range t.shards {
		t.shards[i].size = per
	}
	return t
}

// Epoch returns the tracer's creation time — the zero point of exported
// timelines. Zero for a nil tracer.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Dropped returns how many spans were overwritten by ring overflow.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Event records an instant event (failure, restart).
func (t *Tracer) Event(kind Kind, name string, part, attempt int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.commit(Span{Kind: kind, Name: name, Part: part, Attempt: attempt, Start: now, End: now})
}

// commit assigns an ID, picks a shard round-robin and appends, overwriting
// the oldest span when the ring is full.
func (t *Tracer) commit(sp Span) {
	sp.ID = t.ids.Add(1)
	idx := int(t.next.Add(1)-1) % len(t.shards)
	sp.Worker = idx
	r := &t.shards[idx]
	r.mu.Lock()
	if len(r.buf) < r.size {
		r.buf = append(r.buf, sp)
	} else {
		t.dropped.Add(1)
		r.buf[r.head] = sp
		r.head = (r.head + 1) % r.size
	}
	r.mu.Unlock()
}

// Ingest commits finished spans (an execution recorder's transitions, the
// simulator's synthetic timeline) into the rings so Snapshot and the debug
// endpoints serve them.
func (t *Tracer) Ingest(spans ...Span) {
	if t == nil {
		return
	}
	for _, sp := range spans {
		t.commit(sp)
	}
}

// Snapshot merges all ring buffers into one timeline sorted by start time
// (ties broken by emission ID). It copies under the shard locks and does not
// consume the buffers, so it is safe to call concurrently with emission —
// the collector's drain path and the debug endpoint share it.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for i := range t.shards {
		r := &t.shards[i]
		r.mu.Lock()
		out = append(out, r.buf[r.head:]...)
		out = append(out, r.buf[:r.head]...)
		r.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}
