package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pef/internal/core"
	"pef/internal/fsync"
	"pef/internal/robot"
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

// TestLaneExplorationsMatchScalar runs the possibility-row shapes as lane
// blocks on the LaneBlock runner — E-T1.R1's PEF_3+ teams of 3 to 5 robots
// (where the ring allows) over every positiveWorkloads entry, and E-T1.R3's
// PEF_2 pair on the 3-ring over every entry under both chirality pairs —
// and each run on its own scalar simulator, and requires every lane to
// carry its scalar run's report, tower rounds and tower-lemma verdict.
func TestLaneExplorationsMatchScalar(t *testing.T) {
	type shape struct {
		name             string
		n, runs, horizon int
		team             func(i int) fsync.Config
	}
	var shapes []shape
	for _, n := range []int{4, 7, 12} {
		wls := positiveWorkloads(n)
		shapes = append(shapes, shape{fmt.Sprintf("pef3+/n=%d", n), n, len(wls), 60 * n, func(i int) fsync.Config {
			return randomTeam(core.PEF3Plus, 3+i%min(3, n-3), wls[i].build, uint64(n))
		}})
	}
	wls := positiveWorkloads(3)
	chirs := [][2]robot.Chirality{{robot.RightIsCW, robot.RightIsCW}, {robot.RightIsCW, robot.RightIsCCW}}
	shapes = append(shapes, shape{"pef2/n=3", 3, 2 * len(wls), 400, func(i int) fsync.Config {
		ch := chirs[i%2]
		return fsync.Config{
			Algorithm:  core.PEF2,
			Dynamics:   wls[i/2].build(1 + uint64(i%2)),
			Placements: []fsync.Placement{{Node: 0, Chirality: ch[0]}, {Node: 1, Chirality: ch[1]}},
		}
	}})
	for _, sh := range shapes {
		lanes := make([]Lane, sh.runs)
		for i := range lanes {
			c := sh.team(i)
			if !LaneEligible(c.Dynamics, sh.n) {
				t.Fatalf("%s run %d: dynamics %T not lane-eligible", sh.name, i, c.Dynamics)
			}
			lanes[i] = Lane{Dynamics: c.Dynamics, Placements: c.Placements, Horizon: sh.horizon}
		}
		cfg := LaneConfig{Algorithm: sh.team(0).Algorithm.(robot.Table), Lanes: lanes, Towers: true}
		reps, err := NewLaneBlock().Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		for i, x := range reps {
			ti := spec.NewTowerInvariants()
			c := sh.team(i)
			c.Observers = []fsync.Observer{ti}
			want, err := explorationRun(c, sh.horizon)
			if err != nil {
				t.Fatal(err)
			}
			got := x.Report
			gotV, wantV := got.ExploreViolation(2, sh.horizon/2), want.ExploreViolation(2, sh.horizon/2)
			got.Visits, want.Visits = nil, nil
			if !reflect.DeepEqual(got, want) || gotV != wantV || x.Rounds != sh.horizon ||
				x.Towers != ti.TowerRounds() || x.Flagged != (len(ti.Violations()) > 0) {
				t.Errorf("%s run %d: lane %+v %q towers %d flagged %v, scalar %+v %q towers %d violations %v",
					sh.name, i, got, gotV, x.Towers, x.Flagged, want, wantV, ti.TowerRounds(), ti.Violations())
			}
		}
	}
}
