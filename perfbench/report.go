package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"ftpde/internal/obs"
)

// confirmSeed is the seed a later performance claim is confirmed on after
// it was developed on others (README.md).
const confirmSeed = 7919

// record is the full result of one run, printed on the line before the
// result object and written to the results directory.
type record struct {
	Workload     string                  `json:"workload"`
	Seed         int64                   `json:"seed"`
	ConfirmSeed  int64                   `json:"confirm_seed"`
	Trace        int                     `json:"trace"`
	Seconds      float64                 `json:"seconds"`
	Correct      bool                    `json:"correct"`
	Env          envRecord               `json:"env"`
	Instances    []Instance              `json:"instances"`
	SetupRuns    []float64               `json:"setup_runs_s"`
	WarmupFailed int                     `json:"warmup_failed"`
	Oracle       map[string]classSummary `json:"oracle_coordinator_ms"`
	E2E          e2eSummary              `json:"e2e"`
	Replay       *replayDetail           `json:"replay,omitempty"`
	PeakRSSNote  string                  `json:"peak_rss_note,omitempty"`
}

// classSummary is a per-class median with its sample count.
type classSummary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95,omitempty"`
}

// e2eSummary is the served window, with the sample count of every
// percentile.
type e2eSummary struct {
	Attempted       int                     `json:"attempted"`
	Completed       int                     `json:"completed_correct"`
	Failed          int                     `json:"failed"`
	FailedFrac      float64                 `json:"failed_frac"`
	WallS           float64                 `json:"wall_s"`
	QPS             float64                 `json:"qps"`
	LatencyP50ms    float64                 `json:"latency_p50_ms"`
	LatencyP95ms    float64                 `json:"latency_p95_ms"`
	LatencyN        int                     `json:"latency_n"`
	BeyondP95       int                     `json:"latency_beyond_p95"`
	CPUmsPerQuery   float64                 `json:"cpu_ms_per_query"`
	AllocMBPerQuery float64                 `json:"alloc_mb_per_query"`
	GCCPUFrac       float64                 `json:"gc_cpu_frac"`
	PeakRSSMB       float64                 `json:"peak_rss_mb"`
	SetupS          float64                 `json:"setup_s"`
	GCCycles        uint64                  `json:"gc_cycles"`
	GCPauses        uint64                  `json:"gc_pauses"`
	GCPauseP99us    float64                 `json:"gc_pause_p99_us"`
	Failures        int                     `json:"failures"`
	Recovered       int                     `json:"recovered_partitions"`
	Materialized    int                     `json:"materialized_partitions"`
	PerClassMs      map[string]classSummary `json:"latency_by_class_ms"`
	// MatConfigs counts the served materialization choices per class.
	MatConfigs map[string]map[string]int `json:"matconfigs_by_class"`
	// Drift is the server's drift detector at the end of the window; a
	// flagged term means plans were priced with a corrected model.
	Drift obs.DriftSnapshot `json:"drift"`
}

func summarizeE2E(run *e2eRun, peakRSS uint64, setupS float64) e2eSummary {
	s := e2eSummary{
		Attempted:    len(run.Results),
		Completed:    run.okCount(),
		WallS:        run.Delta.Wall.Seconds(),
		PeakRSSMB:    float64(peakRSS) / 1e6,
		SetupS:       setupS,
		GCCycles:     run.Delta.GCCycles,
		GCPauses:     run.Delta.Pauses,
		GCPauseP99us: float64(run.Delta.PauseP99) / float64(time.Microsecond),
		GCCPUFrac:    run.Delta.GCFrac,
		Failures:     run.Failures,
		Recovered:    run.Recovered,
		Materialized: run.Materialized,
		Drift:        run.Drift,
	}
	s.Failed = s.Attempted - s.Completed
	if s.Attempted > 0 {
		s.FailedFrac = float64(s.Failed) / float64(s.Attempted)
	}
	var lat []float64
	byClass := map[string][]float64{}
	for _, r := range run.Results {
		if !r.OK {
			continue
		}
		ms := float64(r.Latency) / float64(time.Millisecond)
		lat = append(lat, ms)
		byClass[r.Class] = append(byClass[r.Class], ms)
	}
	s.LatencyN = len(lat)
	s.LatencyP50ms = quantile(lat, 0.50)
	s.LatencyP95ms = quantile(lat, 0.95)
	for _, ms := range lat {
		if ms > s.LatencyP95ms {
			s.BeyondP95++
		}
	}
	s.MatConfigs = map[string]map[string]int{}
	for _, r := range run.Results {
		if r.OK {
			if s.MatConfigs[r.Class] == nil {
				s.MatConfigs[r.Class] = map[string]int{}
			}
			s.MatConfigs[r.Class][r.MatConfig]++
		}
	}
	s.PerClassMs = map[string]classSummary{}
	for c, xs := range byClass {
		s.PerClassMs[c] = classSummary{N: len(xs), P50: quantile(xs, 0.5), P95: quantile(xs, 0.95)}
	}
	if s.Completed > 0 {
		n := float64(s.Completed)
		s.QPS = n / s.WallS
		s.CPUmsPerQuery = float64(run.Delta.ProcCPU) / float64(time.Millisecond) / n
		s.AllocMBPerQuery = float64(run.Delta.Allocs) / 1e6 / n
	}
	return s
}

// metrics returns the end-to-end metrics, named as in BENCHMARK.json.
func (s e2eSummary) metrics() map[string]metric {
	return map[string]metric{
		"qps":                {s.QPS, "1/s"},
		"latency_p50_ms":     {s.LatencyP50ms, "ms"},
		"latency_p95_ms":     {s.LatencyP95ms, "ms"},
		"cpu_ms_per_query":   {s.CPUmsPerQuery, "ms"},
		"alloc_mb_per_query": {s.AllocMBPerQuery, "MB"},
		"gc_cpu_frac":        {s.GCCPUFrac, "frac"},
		"peak_rss_mb":        {s.PeakRSSMB, "MB"},
		"setup_s":            {s.SetupS, "s"},
	}
}

// oracleSummary is the staged Coordinator's time per class, in ms.
func oracleSummary(w *Workload, answers []Answer) map[string]classSummary {
	byClass := map[string][]float64{}
	for i, a := range answers {
		c := w.Instances[i].Class
		byClass[c] = append(byClass[c], float64(a.Elapsed)/float64(time.Millisecond))
	}
	out := map[string]classSummary{}
	for c, xs := range byClass {
		out[c] = classSummary{N: len(xs), P50: median(xs)}
	}
	return out
}

// envRecord describes where and on what a run was measured.
type envRecord struct {
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	SF           float64 `json:"sf"`
	Nodes        int     `json:"nodes"`
	Clients      int     `json:"clients"`
	DataSeed     int64   `json:"data_seed"`
}

func environment() envRecord {
	return envRecord{
		GOMAXPROCS:   goruntime.GOMAXPROCS(0),
		NumCPU:       goruntime.NumCPU(),
		CPUModel:     cpuModel(),
		GoVersion:    goruntime.Version(),
		Commit:       commit(),
		SourceSHA256: sourceDigest(),
		SF:           sf,
		Nodes:        nodes,
		Clients:      clients,
		DataSeed:     dataSeed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from; a checkout without
// version-control metadata has none, and the source digest identifies it.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes go.mod and every file under internal/, the code the
// benchmark measures, by path and content.
func sourceDigest() string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range append([]string{"go.mod"}, paths...) {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		io.WriteString(h, p+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
