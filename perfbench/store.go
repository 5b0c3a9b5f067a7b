package main

import (
	"sync"
	"sync/atomic"
	"time"

	"ftpde/internal/engine"
)

// storeCounts is what a timingStore saw during one query.
type storeCounts struct {
	mu      sync.Mutex
	puts    int64
	gets    int64
	rowsPut int64
	putDur  []time.Duration
	spans   []span
}

// timingStore counts and times every call into the checkpoint store of one
// query and records a span per call under the query's runtime span.
type timingStore struct {
	inner  engine.Store
	counts *storeCounts
	rec    *recorder
	req    int64
	parent int64
}

// timingEncodedStore adds PutEncoded for stores that have it. The runtime's
// checkpoint writer picks its write path by asserting engine.EncodedStore,
// so the wrapper must expose exactly the optional interfaces of the store
// it wraps, or the traced run would measure another write path.
type timingEncodedStore struct {
	*timingStore
	enc engine.EncodedStore
}

// wrapStore returns inner wrapped for timing, with inner's optional
// interfaces and no others.
func wrapStore(inner engine.Store, counts *storeCounts, rec *recorder, req, parent int64) engine.Store {
	ts := &timingStore{inner: inner, counts: counts, rec: rec, req: req, parent: parent}
	if enc, ok := inner.(engine.EncodedStore); ok {
		return &timingEncodedStore{timingStore: ts, enc: enc}
	}
	return ts
}

func (s *timingStore) observePut(name string, start time.Time, rows int) {
	end := time.Now()
	sp := s.rec.span(name, s.req, s.parent, start, end)
	s.counts.mu.Lock()
	s.counts.puts++
	s.counts.rowsPut += int64(rows)
	s.counts.putDur = append(s.counts.putDur, end.Sub(start))
	s.counts.spans = append(s.counts.spans, sp)
	s.counts.mu.Unlock()
}

// Put implements engine.Store.
func (s *timingStore) Put(op string, part int, rows []engine.Row, parts int) error {
	start := time.Now()
	err := s.inner.Put(op, part, rows, parts)
	s.observePut("engine.store.put", start, len(rows))
	return err
}

// Get implements engine.Store.
func (s *timingStore) Get(op string, part int) ([]engine.Row, bool) {
	start := time.Now()
	rows, ok := s.inner.Get(op, part)
	sp := s.rec.span("engine.store.get", s.req, s.parent, start, time.Now())
	s.counts.mu.Lock()
	s.counts.gets++
	s.counts.spans = append(s.counts.spans, sp)
	s.counts.mu.Unlock()
	return rows, ok
}

// Len implements engine.Store.
func (s *timingStore) Len() int { return s.inner.Len() }

// PutEncoded implements engine.EncodedStore. The row count is unknown to an
// encoded write, so rows_put counts Put calls only.
func (s *timingEncodedStore) PutEncoded(op string, part int, data []byte, parts int) error {
	start := time.Now()
	err := s.enc.PutEncoded(op, part, data, parts)
	s.observePut("engine.store.put_encoded", start, 0)
	return err
}

// countingInjector counts the runtime's failure decisions: FailCompute is
// asked once per task attempt, so calls count tasks.
type countingInjector struct {
	inner engine.FailureInjector
	calls atomic.Int64
}

// FailCompute implements engine.FailureInjector.
func (c *countingInjector) FailCompute(op string, part, attempt int) bool {
	c.calls.Add(1)
	return c.inner.FailCompute(op, part, attempt)
}
