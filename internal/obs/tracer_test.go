package obs

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Ingest(Span{Kind: KindStage, Name: "s", Part: -1, Attempt: -1, Bytes: 1, Rows: 2})
	//lint:ignore spanpair the test drives the tracer API; no real failure episode to resolve
	tr.Event(KindFailure, "f", 0, 0)
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v, want nil", got)
	}
	if tr.Dropped() != 0 {
		t.Fatal("nil tracer reported drops")
	}
}

func TestTracerRecordsSpansAndEvents(t *testing.T) {
	tr := NewTracer(1024)
	start := time.Now()
	tr.Ingest(Span{Kind: KindStage, Name: "join-1", Part: -1, Attempt: -1, Start: start, End: time.Now(), Rows: 42},
		Span{Kind: KindTask, Name: "join-1", Part: 2, Attempt: 1, Start: start, End: time.Now(), Err: "node failure"})
	//lint:ignore spanpair the test drives the tracer API; no real failure episode to resolve
	tr.Event(KindFailure, "join-1", 2, 1)

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byKind := map[Kind]Span{}
	for _, s := range spans {
		byKind[s.Kind] = s
	}
	if byKind[KindStage].Rows != 42 {
		t.Errorf("stage rows = %d, want 42", byKind[KindStage].Rows)
	}
	if byKind[KindTask].Err != "node failure" {
		t.Errorf("task err = %q", byKind[KindTask].Err)
	}
	if !byKind[KindFailure].Instant() {
		t.Error("failure event is not instant")
	}
	if byKind[KindFailure].Part != 2 || byKind[KindFailure].Attempt != 1 {
		t.Errorf("failure event ids = (%d,%d), want (2,1)",
			byKind[KindFailure].Part, byKind[KindFailure].Attempt)
	}
}

func TestTracerSnapshotSortedByStart(t *testing.T) {
	tr := NewTracer(1024)
	for i := 0; i < 50; i++ {
		//lint:ignore spanpair the test drives the tracer API; no real failure episode to resolve
		tr.Event(KindFailure, "op", i, 0)
	}
	spans := tr.Snapshot()
	for i := 1; i < len(spans); i++ {
		if spans[i].Start.Before(spans[i-1].Start) {
			t.Fatalf("snapshot not sorted at %d", i)
		}
	}
}

func TestTracerRingOverflowCountsDrops(t *testing.T) {
	tr := NewTracer(1) // clamped to 64 per shard
	total := 0
	for i := range tr.shards {
		total += tr.shards[i].size
	}
	for i := 0; i < total+100; i++ {
		tr.Event(KindTask, "op", i, 0)
	}
	if got := len(tr.Snapshot()); got != total {
		t.Errorf("snapshot has %d spans, want ring capacity %d", got, total)
	}
	if tr.Dropped() != 100 {
		t.Errorf("dropped = %d, want 100", tr.Dropped())
	}
}

var tracerSink *Tracer

// TestNewTracerAllocatesLazily pins that a tracer's rings grow with the spans
// they hold: the service builds one per query, so pre-sizing the full
// capacity would cost every short query megabytes it never fills.
func TestNewTracerAllocatesLazily(t *testing.T) {
	const n = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		tracerSink = NewTracer(DefaultCapacity)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / n; got >= 4<<10 {
		t.Errorf("NewTracer(DefaultCapacity) allocates %d B, want < 4 KB", got)
	}
}

// TestTracerConcurrentEmitAndDrain is the race-detector coverage for the
// tracer: many workers emit while a collector snapshots concurrently.
func TestTracerConcurrentEmitAndDrain(t *testing.T) {
	tr := NewTracer(4096)
	const workers = 8
	const perWorker = 500
	stop := make(chan struct{})
	collectorDone := make(chan struct{})
	go func() { // collector drains concurrently with emission
		defer close(collectorDone)
		for {
			select {
			case <-stop:
				return
			default:
				tr.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Ingest(Span{Kind: KindTask, Name: "op", Part: w, Attempt: i, Start: time.Now(), End: time.Now(), Rows: int64(i)})
				if i%10 == 0 {
					//lint:ignore spanpair the test drives the tracer API; no real failure episode to resolve
					tr.Event(KindFailure, "op", w, i)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-collectorDone

	spans := tr.Snapshot()
	if len(spans)+int(tr.Dropped()) != workers*perWorker+workers*perWorker/10 {
		t.Errorf("spans %d + dropped %d != emitted %d",
			len(spans), tr.Dropped(), workers*perWorker+workers*perWorker/10)
	}
}

func TestChromeTraceExportParses(t *testing.T) {
	tr := NewTracer(256)
	start := time.Now()
	time.Sleep(time.Millisecond)
	tr.Ingest(Span{Kind: KindStage, Name: "aggregate", Part: -1, Attempt: -1, Start: start, End: time.Now()})
	//lint:ignore spanpair the test drives the tracer API; no real failure episode to resolve
	tr.Event(KindFailure, "aggregate", 1, 0)

	var buf jsonBuffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.b, &parsed); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(parsed.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(parsed.TraceEvents))
	}
	phases := map[string]bool{}
	for _, ev := range parsed.TraceEvents {
		phases[ev["ph"].(string)] = true
	}
	if !phases["X"] || !phases["i"] {
		t.Errorf("want one complete and one instant event, got %v", phases)
	}
}

func TestWriteJSONTimeline(t *testing.T) {
	tr := NewTracer(256)
	tr.Event(KindRestart, "query", -1, -1)
	var buf jsonBuffer
	if err := WriteJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var tl Timeline
	if err := json.Unmarshal(buf.b, &tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.Spans) != 1 || tl.Spans[0].Kind != KindRestart {
		t.Errorf("timeline = %+v", tl)
	}
}

type jsonBuffer struct{ b []byte }

func (j *jsonBuffer) Write(p []byte) (int, error) {
	j.b = append(j.b, p...)
	return len(p), nil
}
