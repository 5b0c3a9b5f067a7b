package main

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ftpde/internal/engine"
	"ftpde/internal/runtime"
	"ftpde/internal/sql"
	"ftpde/internal/tpch"
)

// The checkpoint writer picks its write path by asserting
// engine.EncodedStore on the store, so a wrapper that added or dropped
// PutEncoded would make the traced replay measure another program.
func TestWrapStoreKeepsOptionalInterfaces(t *testing.T) {
	rec := &recorder{epoch: time.Now()}
	mem := engine.NewMatStore()
	var memStore engine.Store = mem
	_, memEncoded := memStore.(engine.EncodedStore)
	if _, ok := wrapStore(mem, &storeCounts{}, rec, 0, 0).(engine.EncodedStore); ok != memEncoded {
		t.Errorf("wrapped MatStore: EncodedStore = %v, MatStore itself: %v", ok, memEncoded)
	}

	disk, err := engine.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapStore(disk, &storeCounts{}, rec, 0, 0).(engine.EncodedStore); !ok {
		t.Error("wrapped DiskStore lost PutEncoded")
	}
}

// A wrapped store sees every checkpoint the runtime writes and does not
// change the result.
func TestWrappedStoreCountsCheckpoints(t *testing.T) {
	const parts = 4
	cat, err := tpch.Generate(0.002, parts, 1)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sql.Parse(`SELECT n_name, COUNT(*) AS cnt FROM supplier JOIN nation ON s_nationkey = n_nationkey GROUP BY n_name`)
	if err != nil {
		t.Fatal(err)
	}
	execute := func(store engine.Store) []engine.Row {
		pp, err := sql.Compile(stmt, cat)
		if err != nil {
			t.Fatal(err)
		}
		if len(pp.Joins) == 0 {
			t.Fatal("query compiled without a join")
		}
		pp.Joins[0].SetMaterialize(true)
		rt, err := runtime.New(runtime.Config{Nodes: parts, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := rt.Execute(context.Background(), pp.Root)
		if err != nil {
			t.Fatal(err)
		}
		return res.AllRows()
	}
	want := execute(engine.NewMatStore())
	counts := &storeCounts{}
	got := execute(wrapStore(engine.NewMatStore(), counts, &recorder{epoch: time.Now()}, 7, 1))
	if !reflect.DeepEqual(got, want) {
		t.Error("result through the wrapped store differs")
	}
	if counts.puts != parts {
		t.Errorf("puts = %d, want one per partition (%d)", counts.puts, parts)
	}
	if len(counts.spans) != int(counts.puts+counts.gets) {
		t.Errorf("%d spans for %d puts and %d gets", len(counts.spans), counts.puts, counts.gets)
	}
	for _, sp := range counts.spans {
		if sp.Req != 7 || sp.Parent != 1 {
			t.Errorf("span %+v not attributed to request 7 under span 1", sp)
		}
	}
}

// The request sequence is a pure function of the seed and carries every
// class at its weight in every round.
func TestRequestSequence(t *testing.T) {
	for _, name := range []string{wlTPCHMix, wlShortQueries} {
		a, err := NewWorkload(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewWorkload(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Instances, b.Instances) {
			t.Fatalf("%s: instances differ for one seed", name)
		}
		rounds := 50
		perClass := map[string]int{}
		for i := int64(0); i < int64(rounds*len(a.deck)); i++ {
			if a.Request(i) != b.Request(i) {
				t.Fatalf("%s: request %d differs for one seed", name, i)
			}
			perClass[a.Instances[a.Request(i)].Class]++
		}
		for c, idx := range a.classes {
			class := a.Instances[idx[0]].Class
			if got, want := perClass[class], rounds*a.weights[c]; got != want {
				t.Errorf("%s: class %s drawn %d times in %d rounds, want %d", name, class, got, rounds, want)
			}
		}
	}
	c, err := NewWorkload(wlTPCHMix, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewWorkload(wlTPCHMix, 3)
	if reflect.DeepEqual(a.Instances, c.Instances) {
		t.Error("seeds 3 and 4 drew the same parameters")
	}
}
