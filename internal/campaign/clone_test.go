package campaign

import (
	"encoding/json"
	"testing"

	"nilihype/internal/core"
	"nilihype/internal/inject"
)

// TestOnResultCloneSurvivesRecycling pins the copy-on-retain contract on
// Campaign.OnResult: the executor recycles one Result's backing arrays
// across a worker's runs, so a retained Clone must alias none of them. The
// test snapshots each Result (serialized, so the snapshot shares no
// memory) inside the callback while also retaining the delivered Result
// as-is; after the campaign — once recycling has overwritten the shared
// arrays run after run — it scribbles over every slice of the raw copies
// for good measure and checks each Clone still matches its snapshot.
func TestOnResultCloneSurvivesRecycling(t *testing.T) {
	rc := fastCfg(inject.Code, core.Microreset)
	rc.Recovery.Escalation.Audit = true
	var raw, clones []Result
	var snaps [][]byte
	c := Campaign{Base: rc, Runs: 4, Parallelism: 1, SeedBase: 53, // seed 56 goes wrong: a Flight tail to alias
		OnResult: func(r Result) {
			snap, err := json.Marshal(r)
			if err != nil {
				t.Errorf("marshal result: %v", err)
			}
			raw = append(raw, r) // contract violation, on purpose
			clones = append(clones, r.Clone())
			snaps = append(snaps, snap)
		}}
	c.Execute()
	if len(clones) != 4 {
		t.Fatalf("observed %d results, want 4", len(clones))
	}

	// The raw copies share backing arrays with the executor's recycled
	// Result; scribble through them the way a later run would.
	for i := range raw {
		for j := range raw[i].VMs {
			raw[i].VMs[j] = VMResult{Reason: "scribbled"}
		}
		for j := range raw[i].Flight {
			raw[i].Flight[j] = "scribbled"
		}
		for j := range raw[i].Phases {
			raw[i].Phases[j] = core.LatencyStep{Name: "scribbled"}
		}
		for j := range raw[i].SacrificedVMs {
			raw[i].SacrificedVMs[j] = -1
		}
	}

	sawFlight := false
	for i, cl := range clones {
		got, err := json.Marshal(cl)
		if err != nil {
			t.Fatalf("marshal clone %d: %v", i, err)
		}
		if string(got) != string(snaps[i]) {
			t.Errorf("clone %d no longer matches its callback-time snapshot:\nwant %s\ngot  %s", i, snaps[i], got)
		}
		sawFlight = sawFlight || len(cl.Flight) > 0
		if len(cl.VMs) == 0 {
			t.Errorf("clone %d has no VM results; the aliasing check needs populated slices", i)
		}
	}
	if !sawFlight {
		t.Error("no clone carried a flight tail; the aliasing check needs a wrong run among the seeds")
	}
}
