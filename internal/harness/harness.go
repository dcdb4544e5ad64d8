// Package harness defines and runs the experiment index of DESIGN.md: one
// experiment per table and figure of the paper (E-T1.R1 … E-T1.R5, E-F1,
// E-F2, E-F3) plus the extension experiments (E-X1 … E-X12). Each experiment
// produces a pass/fail verdict against the paper's prediction and a report
// table; `pef experiments` renders the full index as a markdown report or
// the JSON trajectory BENCH_0005.json records.
package harness

import (
	"fmt"
	"io"
	"slices"

	"pef/internal/metrics"
	"pef/internal/robot"
	"pef/internal/spec"
)

// Config parameterizes a harness run.
type Config struct {
	// Seed drives all pseudo-randomness; equal seeds reproduce runs
	// bit-for-bit.
	Seed uint64
	// Quick reduces horizons and sweep sizes (used by unit tests and
	// benchmarks); the full experiment suite leaves it false.
	Quick bool
}

// pick returns full, or quick under Config.Quick.
func pick[T any](cfg Config, full, quick T) T {
	if cfg.Quick {
		return quick
	}
	return full
}

// Result is one experiment's outcome.
type Result struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "E-T1.R2").
	ID string
	// Title describes the experiment.
	Title string
	// Artifact names the paper artifact reproduced (e.g. "Table 1 row 2").
	Artifact string
	// Pass reports whether the observation matches the paper's prediction.
	Pass bool
	// Table holds the measured rows.
	Table *metrics.Table
	// Notes carries free-form findings.
	Notes []string
	// Diagram optionally holds a space-time excerpt (Figures 2 and 3).
	Diagram string
	// Scalars holds per-run scalar observations (cover times, revisit
	// gaps, …) that sweeps aggregate into min/mean/max trends across
	// seeds. Order is the experiment's own emission order.
	Scalars []metrics.Scalar
}

// Observe appends one scalar observation to the result.
func (r *Result) Observe(name string, value int) {
	r.Scalars = append(r.Scalars, metrics.Scalar{Name: name, Value: value})
}

// ObserveExploration records the standard exploration scalars of a run
// report: the cover time (when the run covered the ring) and the maximum
// revisit gap.
func (r *Result) ObserveExploration(rep spec.ExplorationReport) {
	if rep.CoverTime >= 0 {
		r.Observe("cover", rep.CoverTime)
	}
	r.Observe("maxGap", rep.MaxGap)
}

// clone returns a copy of r that appends to either result do not reach.
func (r Result) clone() Result {
	r.Table = r.Table.Clone()
	r.Notes = slices.Clone(r.Notes)
	r.Scalars = slices.Clone(r.Scalars)
	return r
}

// fail marks the result failed and records why.
func (r *Result) fail(format string, args ...any) {
	r.Pass = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Experiment is a runnable experiment.
type Experiment struct {
	ID       string
	Title    string
	Artifact string
	Run      func(cfg Config) (Result, error)
	// Shards optionally decomposes the experiment into independently
	// runnable sub-experiments (one per ring size, or per ring size and
	// victim, for the heavy sweeps), so a single experiment no longer
	// serializes on one batch worker. The quick flag must match the
	// Config the shards will run under, because it selects the cases.
	Shards func(quick bool) []Experiment
	// seedFree marks an experiment whose Run never reads Config.Seed:
	// RunBatch runs it once per batch and copies its Result to every seed.
	seedFree bool
	// packing, when non-nil, runs the experiment for a block of seeds at
	// once; RunBatch uses it in place of Run.
	packing *packing
}

// packing is the seed-block form of an experiment's Run: a batch job runs
// up to size(quick) seeds, and run returns one Result per seed, each the
// one Run gives that seed alone. The planned experiments (lanePlan) have
// one, so that their lane blocks hold the runs of several seeds.
type packing struct {
	size func(quick bool) int
	run  func(quick bool, seeds []uint64) ([]Result, error)
}

// result is e's identity on a not yet passing result: every Result, of a
// full run, a shard or a job that never ran, starts from it.
func (e Experiment) result() Result {
	return Result{
		ID:       e.ID,
		Title:    e.Title,
		Artifact: e.Artifact,
	}
}

// single declares an experiment whose body fills a passing result that
// already carries the experiment's identity.
func single(id, title, artifact string, body func(cfg Config, res *Result) error) Experiment {
	e := Experiment{ID: id, Title: title, Artifact: artifact}
	start := e.result()
	start.Pass = true
	e.Run = func(cfg Config) (Result, error) {
		res := start
		err := body(cfg, &res)
		return res, err
	}
	return e
}

// seedFree declares that e, and each of its shards, never reads
// Config.Seed; TestSeedFreeExperiments checks it.
func seedFree(e Experiment) Experiment {
	e.seedFree = true
	if shards := e.Shards; shards != nil {
		e.Shards = func(quick bool) []Experiment {
			out := shards(quick)
			for i := range out {
				out[i].seedFree = true
			}
			return out
		}
	}
	return e
}

// sweep is an experiment whose rows split into independent cases: a ring
// size, or a (ring size, victim) pair. The full run and each shard call
// the same per-case body, so the shard tables concatenate to the full one.
type sweep struct {
	// rings and quickRings are the swept ring sizes.
	rings, quickRings []int
	// victims crosses every ring size with the victim suite.
	victims bool
	header  []string
	body    func(cfg Config, res *Result, c sweepCase) error
	// row, set instead of body, is a case whose runs all go through
	// explorations; the sweep is then planned (sweep.experiment).
	row func(quick bool, c sweepCase) laneRow
	// notes close the result, after the cases.
	notes []string
}

// sweepCase is one case of a sweep; alg is nil unless the sweep crosses
// victims.
type sweepCase struct {
	n   int
	alg robot.Algorithm
}

func (s sweep) cases(quick bool) []sweepCase {
	ns := s.rings
	if quick {
		ns = s.quickRings
	}
	var out []sweepCase
	for _, n := range ns {
		if !s.victims {
			out = append(out, sweepCase{n: n})
			continue
		}
		for _, alg := range victimSuite() {
			out = append(out, sweepCase{n, alg})
		}
	}
	return out
}

// run runs the given cases, or every case of the run's quick setting when
// cases is nil.
func (s sweep) run(cases []sweepCase) func(cfg Config, res *Result) error {
	return func(cfg Config, res *Result) error {
		res.Table = metrics.NewTable(s.header...)
		cs := cases
		if cs == nil {
			cs = s.cases(cfg.Quick)
		}
		for _, c := range cs {
			if err := s.body(cfg, res, c); err != nil {
				return err
			}
		}
		res.Notes = append(res.Notes, s.notes...)
		return nil
	}
}

// experiment declares the sweep over the given cases, or over every case
// of the run's quick setting when cases is nil. A sweep with a row is
// planned: case by case, its rows form the experiment's lane plan.
func (s sweep) experiment(id, title, artifact string, cases []sweepCase) Experiment {
	if s.row == nil {
		return single(id, title, artifact, s.run(cases))
	}
	return planned(id, title, artifact, &lanePlan{
		header: s.header,
		notes:  s.notes,
		rows: func(quick bool) []laneRow {
			cs := cases
			if cs == nil {
				cs = s.cases(quick)
			}
			rows := make([]laneRow, len(cs))
			for i, c := range cs {
				rows[i] = s.row(quick, c)
			}
			return rows
		},
	})
}

// swept declares a sweep experiment and its shards: one per case, with
// IDs "<id>#n=<size>" or "<id>#n=<size>/a=<victim>".
func swept(id, title, artifact string, s sweep) Experiment {
	e := s.experiment(id, title, artifact, nil)
	e.Shards = func(quick bool) []Experiment {
		var out []Experiment
		for _, c := range s.cases(quick) {
			sid, label := fmt.Sprintf("%s#n=%d", id, c.n), fmt.Sprintf("n=%d", c.n)
			if c.alg != nil {
				sid += "/a=" + c.alg.Name()
				label += ", " + c.alg.Name()
			}
			sh := s.experiment(sid, title, artifact, []sweepCase{c})
			// A shard's result keeps the experiment's title, like its
			// report rows; the labelled title names the job before it runs.
			sh.Title = fmt.Sprintf("%s [%s]", title, label)
			out = append(out, sh)
		}
		return out
	}
	return e
}

// Sharded expands every experiment that declares Shards into its
// sub-experiments, leaving the others untouched. Expansion preserves index
// order, and each shard's rows reproduce exactly the rows the full
// experiment computes for that case (same seeds, same workloads), so a
// sharded sweep covers the same ground with finer-grained parallelism.
func Sharded(exps []Experiment, quick bool) []Experiment {
	var out []Experiment
	for _, e := range exps {
		if e.Shards != nil {
			out = append(out, e.Shards(quick)...)
			continue
		}
		out = append(out, e)
	}
	return out
}

// All returns the full experiment index in report order. It is the one
// place an experiment's ID, title and artifact are written.
func All() []Experiment {
	return []Experiment{
		swept("E-T1.R1", "PEF_3+ explores with k>=3 robots on n>k rings", "Table 1 row 1 (Theorem 3.1)", t1r1),
		seedFree(swept("E-T1.R2", "Two robots are confined on rings of size >= 4", "Table 1 row 2 (Theorem 4.1)", t1r2)),
		single("E-T1.R3", "PEF_2 explores the 3-node ring with 2 robots", "Table 1 row 3 (Theorem 4.2)", runT1R3),
		seedFree(swept("E-T1.R4", "One robot is confined on rings of size >= 3", "Table 1 row 4 (Theorem 5.1)", t1r4)),
		single("E-T1.R5", "PEF_1 explores the 2-node ring with 1 robot", "Table 1 row 5 (Theorem 5.2)", runT1R5),
		seedFree(single("E-F1", "Mirror gadget G' and Claims 1-4 of Lemma 4.1", "Figure 1", runF1)),
		seedFree(single("E-F2", "Four-phase confinement schedule for two robots", "Figure 2 (Theorem 4.1 construction)", runF2)),
		seedFree(single("E-F3", "Two-phase confinement schedule for one robot", "Figure 3 (Theorem 5.1 construction)", runF3)),
		swept("E-X1", "Cover time scaling of PEF_3+ with ring size", "extension", x1),
		single("E-X2", "Revisit gap versus edge recurrence bound", "extension", runX2),
		single("E-X3", "Rule ablations of PEF_3+", "extension (Section 3.1 rationale)", runX3),
		seedFree(single("E-X4", "SSYNC impossibility versus FSYNC control", "related work [10] (Section 1)", runX4)),
		swept("E-X5", "PEF_3+ on connected-over-time chains", "Section 1 remark", x5),
		single("E-X6", "Self-stabilization probe from corrupted configurations", "extension ([4] context)", runX6),
		planned("E-X7", "Team size sweep", "extension", &x7),
		seedFree(single("E-X8", "Convergence framework prefix growth", "framework [5]", runX8)),
		single("E-X9", "Dynamics taxonomy classification", "taxonomy of [6] (Section 2.1 context)", runX9),
		swept("E-X10", "Sentinel formation time (Lemma 3.7)", "Lemma 3.7", x10),
		seedFree(single("E-X11", "The three-robot threshold: containment vs legality", "Table 1 synthesis", runX11)),
		single("E-X12", "Lockstep engine equivalence: bit-parallel vs scalar trajectories", "extension (engine invariant)", runX12),
	}
}

// Find returns the experiment with the given ID: an index entry, or one of
// the shards (under the quick setting) whose IDs sharded reports print.
func Find(id string, quick bool) (Experiment, bool) {
	all := All()
	for _, e := range append(all, Sharded(all, quick)...) {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// WriteResult renders one result in the report format.
func WriteResult(w io.Writer, res Result) error {
	status := "PASS"
	if !res.Pass {
		status = "FAIL"
	}
	if _, err := fmt.Fprintf(w, "\n## %s — %s [%s]\n\nReproduces: %s\n\n", res.ID, res.Title, status, res.Artifact); err != nil {
		return err
	}
	if res.Table != nil && res.Table.Rows() > 0 {
		if _, err := io.WriteString(w, res.Table.String()); err != nil {
			return err
		}
	}
	for _, n := range res.Notes {
		if _, err := fmt.Fprintf(w, "\n- %s", n); err != nil {
			return err
		}
	}
	if res.Diagram != "" {
		if _, err := fmt.Fprintf(w, "\n\n```\n%s```\n", res.Diagram); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n")
	return err
}
