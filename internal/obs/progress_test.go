package obs

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"ftpde/internal/obs/metrics"
)

func TestProgressSnapshotFractionsAndETA(t *testing.T) {
	r := NewProgressRegistry(4)
	p := r.Begin("t1", "aggregate")
	scan := p.EnsureStage("scan", 4)
	agg := p.EnsureStage("aggregate", 4)
	p.SetPrediction(10, map[string]float64{"scan": 4, "aggregate": 6})

	scan.PartDone(100)
	scan.PartDone(50)
	agg.PartDone(10)
	agg.AddCheckpointBytes(2048)

	snap := p.Snapshot()
	if len(snap.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(snap.Stages))
	}
	if snap.Stages[0].Name != "scan" || snap.Stages[0].DoneParts != 2 || snap.Stages[0].Rows != 150 {
		t.Errorf("scan stage = %+v", snap.Stages[0])
	}
	if snap.Stages[1].CheckpointBytes != 2048 {
		t.Errorf("aggregate ckpt bytes = %d, want 2048", snap.Stages[1].CheckpointBytes)
	}
	// 3 of 8 parts done.
	if want := 3.0 / 8.0; snap.Frac != want {
		t.Errorf("frac = %g, want %g", snap.Frac, want)
	}
	// ETA from per-stage predictions: 4*(1-0.5) + 6*(1-0.25) = 6.5.
	if want := 4*0.5 + 6*0.75; snap.EtaSeconds != want {
		t.Errorf("eta = %g, want %g", snap.EtaSeconds, want)
	}
	if snap.Attempts != 1 || snap.Done {
		t.Errorf("attempts=%d done=%v, want 1/false", snap.Attempts, snap.Done)
	}
}

func TestProgressUndoneAndRestart(t *testing.T) {
	r := NewProgressRegistry(0)
	p := r.Begin("", "q")
	st := p.EnsureStage("join", 2)
	st.PartDone(10)
	st.PartDone(20)
	st.AddCheckpointBytes(100)
	st.PartUndone(20)
	snap := p.Snapshot()
	if snap.Stages[0].DoneParts != 1 || snap.Stages[0].Rows != 10 {
		t.Errorf("after undo: %+v", snap.Stages[0])
	}

	p.Failure()
	p.Restart()
	snap = p.Snapshot()
	if snap.Attempts != 2 || snap.Failures != 1 {
		t.Errorf("attempts=%d failures=%d, want 2/1", snap.Attempts, snap.Failures)
	}
	if snap.Stages[0].DoneParts != 0 || snap.Stages[0].Rows != 0 {
		t.Errorf("restart did not reset stage: %+v", snap.Stages[0])
	}
	// Checkpoint bytes persist across restarts: restored partitions were paid for.
	if snap.Stages[0].CheckpointBytes != 100 {
		t.Errorf("restart cleared checkpoint bytes: %+v", snap.Stages[0])
	}
}

func TestProgressNilSafety(t *testing.T) {
	var p *Progress
	var sp *StageProgress
	var r *ProgressRegistry
	sp = p.EnsureStage("x", 1)
	sp.PartDone(1)
	sp.PartUndone(1)
	sp.AddCheckpointBytes(1)
	sp.Reset()
	p.SetPrediction(1, nil)
	p.Restart()
	p.Failure()
	if sp.Rows() != 0 {
		t.Error("nil stage handle has rows")
	}
	if p.ID() != 0 {
		t.Error("nil progress has non-zero ID")
	}
	_ = p.Snapshot()
	if got := r.Begin("t", "q"); got != nil {
		t.Error("nil registry Begin returned non-nil progress")
	}
	r.End(nil, nil)
	_ = r.Snapshot()
}

func TestProgressRegistryLifecycle(t *testing.T) {
	r := NewProgressRegistry(2)
	a := r.Begin("t1", "qa")
	b := r.Begin("t2", "qb")
	if a.ID() == b.ID() || a.ID() == 0 {
		t.Fatalf("ids not unique: %d %d", a.ID(), b.ID())
	}
	snap := r.Snapshot()
	if len(snap.Active) != 2 || len(snap.Recent) != 0 {
		t.Fatalf("active=%d recent=%d, want 2/0", len(snap.Active), len(snap.Recent))
	}
	if snap.Active[0].ID != a.ID() {
		t.Error("active not sorted by id")
	}

	r.End(a, nil)
	r.End(b, errors.New("boom"))
	c := r.Begin("t3", "qc")
	d := r.Begin("t4", "qd")
	r.End(c, nil)
	r.End(d, nil)
	snap = r.Snapshot()
	if len(snap.Active) != 0 {
		t.Errorf("active = %d, want 0", len(snap.Active))
	}
	// keep=2: only the two newest completions survive, newest first.
	if len(snap.Recent) != 2 || snap.Recent[0].ID != d.ID() || snap.Recent[1].ID != c.ID() {
		t.Fatalf("recent = %+v, want [qd qc]", snap.Recent)
	}
	if !snap.Recent[0].Done {
		t.Error("recent query not marked done")
	}
}

func TestProgressRegistryServeHTTP(t *testing.T) {
	r := NewProgressRegistry(4)
	p := r.Begin("t1", "q1")
	p.EnsureStage("scan", 2).PartDone(5)
	done := r.Begin("t2", "q2")
	r.End(done, errors.New("exhausted"))

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/queries", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var snap QueriesSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if len(snap.Active) != 1 || snap.Active[0].Name != "q1" {
		t.Errorf("active = %+v", snap.Active)
	}
	if len(snap.Recent) != 1 || snap.Recent[0].Err != "exhausted" {
		t.Errorf("recent = %+v", snap.Recent)
	}
	if !strings.Contains(rec.Body.String(), `"done_parts": 1`) {
		t.Errorf("stage progress missing from body:\n%s", rec.Body.String())
	}
}

func TestRegisterProgressMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	r := NewProgressRegistry(4)
	RegisterProgressMetrics(reg, r)
	RegisterProgressMetrics(reg, r) // idempotent

	p := r.Begin("t", "q")
	q := r.Begin("t", "q2")
	r.End(q, nil)

	got := map[string]float64{}
	for _, fam := range reg.Snapshot().Families {
		if len(fam.Series) == 1 {
			got[fam.Name] = fam.Series[0].Value
		}
	}
	if got["ftpde_queries_inflight"] != 1 {
		t.Errorf("inflight = %g, want 1", got["ftpde_queries_inflight"])
	}
	if got["ftpde_queries_tracked_total"] != 2 {
		t.Errorf("tracked = %g, want 2", got["ftpde_queries_tracked_total"])
	}
	r.End(p, nil)
}

func TestStagePredictions(t *testing.T) {
	pred := Prediction{Ops: []OpPrediction{
		{Name: "{1,2}", Ops: []string{"scan-a", "filter-a"}, Runtime: 3},
		{Name: "{3}", Ops: []string{"join-1"}, Runtime: 5},
	}}
	m := StagePredictions(pred)
	if m["scan-a"] != 3 || m["filter-a"] != 3 || m["join-1"] != 5 {
		t.Errorf("stage predictions = %v", m)
	}
}
