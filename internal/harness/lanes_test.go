package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pef/internal/core"
	"pef/internal/dynamics"
	"pef/internal/fsync"
	"pef/internal/spec"
)

// TestLaneRowsMatchCommittedTrajectory reruns, at full size for seeds 1
// and 2, the lane-routed possibility jobs (every E-T1.R1 shard, E-T1.R3
// and E-T1.R5) and the jobs that build a recorded graph (every shard of
// E-F1, E-F2, E-F3, E-X8 and E-X11), and requires the verdict, table and
// notes that BENCH_0005.json records for each job.
func TestLaneRowsMatchCommittedTrajectory(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_0005.json")
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		ID    string   `json:"id"`
		Seed  uint64   `json:"seed"`
		Pass  bool     `json:"pass"`
		Notes []string `json:"notes"`
		Table string   `json:"table"`
	}
	var doc struct {
		Jobs []job `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	pinned := func(id string) bool {
		for _, exp := range []string{"E-T1.R1", "E-T1.R3", "E-T1.R5", "E-F1", "E-F2", "E-F3", "E-X8", "E-X11"} {
			if id == exp || strings.HasPrefix(id, exp+"#") {
				return true
			}
		}
		return false
	}
	checked := 0
	for _, e := range Sharded(All(), false) {
		if !pinned(e.ID) {
			continue
		}
		for _, seed := range []uint64{1, 2} {
			i := slices.IndexFunc(doc.Jobs, func(j job) bool { return j.ID == e.ID && j.Seed == seed })
			if i < 0 {
				t.Fatalf("%s seed %d: no committed job", e.ID, seed)
			}
			want := doc.Jobs[i]
			res, err := e.Run(Config{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", e.ID, seed, err)
			}
			if res.Pass != want.Pass || res.Table.String() != want.Table || fmt.Sprint(res.Notes) != fmt.Sprint(want.Notes) {
				t.Errorf("%s seed %d differs from BENCH_0005.json:\n--- got (pass %v) ---\n%s%v\n--- want (pass %v) ---\n%s%v",
					e.ID, seed, res.Pass, res.Table, res.Notes, want.Pass, want.Table, want.Notes)
			}
			checked++
		}
	}
	if checked != 22 {
		t.Fatalf("checked %d jobs, want 22 (4 E-T1.R1 shards, E-T1.R3, E-T1.R5, E-F1, E-F2, E-F3, E-X8, E-X11; 2 seeds)", checked)
	}
}

// TestLaneExplorationsMatchScalar runs the oblivious E-T1.R1 workloads as
// one lane block of mixed team sizes (3 to 5 robots where the ring allows)
// and each on its own scalar simulator, and requires every
// passing lane to carry the scalar run's report and tower rounds.
func TestLaneExplorationsMatchScalar(t *testing.T) {
	for _, n := range []int{4, 7, 12} {
		horizon := 60 * n
		wls := positiveWorkloads(n)[:len(dynamics.StandardSuite())]
		team := func(i int) fsync.Config { // k = 3, 4, 5 where the ring allows
			return randomTeam(core.PEF3Plus, 3+i%min(3, n-3), wls[i].build, uint64(n))
		}
		cs := make([]fsync.Config, len(wls))
		lanes := make([]int, len(wls))
		for i := range cs {
			cs[i], lanes[i] = team(i), i
		}
		out := make([]exploration, len(wls))
		passed := laneExplorations(cs, lanes, horizon, true, out)
		if passed == 0 {
			t.Fatalf("n=%d: no lane passed", n)
		}
		for i, x := range out {
			if passed&(1<<uint(i)) == 0 {
				continue
			}
			ti := spec.NewTowerInvariants()
			c := team(i)
			c.Observers = []fsync.Observer{ti}
			want, err := explorationRun(c, horizon)
			if err != nil {
				t.Fatal(err)
			}
			got := x.rep
			got.Visits, want.Visits = nil, nil
			if !reflect.DeepEqual(got, want) || x.towers != ti.TowerRounds() {
				t.Errorf("n=%d %s: lane %+v towers %d, scalar %+v towers %d", n, wls[i].name, got, x.towers, want, ti.TowerRounds())
			}
		}
	}
}
