package main

import (
	"encoding/json"
	"net"
	"os"
	"slices"
	"testing"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/baseline"
	"droidfuzz/internal/crash"
	"droidfuzz/internal/device"
	"droidfuzz/internal/engine"
	"droidfuzz/internal/relation"
)

// onlyExecutor hides every optional extension of the executor it embeds.
type onlyExecutor struct{ adb.Executor }

type onlyCloner struct {
	adb.Executor
	adb.Cloner
}

type onlyBatch struct {
	adb.Executor
	adb.BatchExecutor
}

func extensions(x adb.Executor) (batch, cloner bool) {
	_, batch = x.(adb.BatchExecutor)
	_, cloner = x.(adb.Cloner)
	return batch, cloner
}

func TestWrapperKeepsExactlyTheOptionalInterfaces(t *testing.T) {
	broker, _, err := bootModel("A1")
	if err != nil {
		t.Fatal(err)
	}
	hostEnd, devEnd := net.Pipe()
	defer hostEnd.Close()
	defer devEnd.Close()
	conn := adb.Dial(hostEnd)

	for _, tc := range []struct {
		name          string
		x             adb.Executor
		batch, cloner bool
	}{
		{"broker", broker, true, true},
		{"conn", conn, true, true},
		{"executor only", onlyExecutor{broker}, false, false},
		{"cloner only", onlyCloner{broker, broker}, false, true},
		{"batch only", onlyBatch{broker, broker}, true, false},
	} {
		wrapped := wrapExecutor(tc.x, &timedExec{names: deviceSpans, log: newSpanLog()})
		if b, c := extensions(wrapped); b != tc.batch || c != tc.cloner {
			t.Errorf("%s: wrapped batch=%v cloner=%v, want %v %v", tc.name, b, c, tc.batch, tc.cloner)
		}
	}
}

// campaignDigest runs one campaign of w at a small budget and returns its
// output digest.
func campaignDigest(t *testing.T, w workload, iters int, traced bool) string {
	t.Helper()
	r, err := w.setup(7, iters, traced)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	var tr *trace
	if traced {
		tr = newTrace()
	}
	if err := r.run(tr); err != nil {
		t.Fatal(err)
	}
	o, _ := r.result()
	if traced && len(tr.log.spans["device.exec_us"]) == 0 {
		t.Fatalf("%s: traced run recorded no device spans", w.name)
	}
	return o.digest
}

func TestTracedCampaignsReproduceUntraced(t *testing.T) {
	for _, name := range []string{"serial-a1", "pristine-lineage", "batched-wire"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plain := campaignDigest(t, w, 800, false)
		traced := campaignDigest(t, w, 800, true)
		if plain != traced {
			t.Errorf("%s: traced campaign diverged:\n  plain  %s\n  traced %s", name, plain, traced)
		}
	}
}

// The benchmark's serial set-up must build the same campaign as the
// program's own attach path.
func TestSerialSetupMatchesBaseline(t *testing.T) {
	w, err := workloadByName("serial-a1")
	if err != nil {
		t.Fatal(err)
	}
	const iters = 800
	model, err := device.ModelByID("A1")
	if err != nil {
		t.Fatal(err)
	}
	e, err := baseline.NewDroidFuzz(device.New(model), relation.New(), crash.NewDedup(), engine.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(iters)
	if got, want := campaignDigest(t, w, iters, false), engineDigest(e); got != want {
		t.Errorf("benchmark set-up diverged from baseline.NewDroidFuzz:\n  bench    %s\n  baseline %s", got, want)
	}
}

func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}

	cs := []campaign{{out: outcome{iters: 1}, wall: 1}}
	check := func(kind string, declared []struct{ Name, Unit string }, printed map[string]metric) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, benchmark prints %d", kind, len(declared), len(printed))
		}
		for _, d := range declared {
			if m, ok := printed[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: %s (%s) declared, printed as %+v (found %v)", kind, d.Name, d.Unit, m, ok)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics(cs))
	tr := newTrace()
	check("per_layer", spec.PerLayer, layerMetrics(cs, []campaign{{out: outcome{iters: 1}, wall: 1, tr: tr, probes: newSpanLog()}}))
}

// The yardstick must not touch the Go heap, or the program's heap and GC
// would change what it measures.
func TestYardstickDoesNotAllocate(t *testing.T) {
	if _, err := yardstick(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(3, func() { yardstick() }); n != 0 {
		t.Errorf("yardstick allocated %v times per call", n)
	}
}
