// Package scenario is the declarative scenario layer between the public
// facade and the batch engine: a Spec pins down one complete exploration
// setting (ring, team, algorithm, placement, dynamics family + parameters,
// horizon, seed), generators sample arbitrarily many Specs per seed over
// the full parameter space, an oracle runs a Spec and checks the paper's
// predicates against the outcome, and a Campaign shards generated Specs
// across the harness worker pool with the same reorder-buffer determinism
// as the experiment index.
//
// Where the experiment harness reproduces the paper's hand-picked tables,
// the scenario subsystem checks the paper's *quantified* statements — over
// every connected-over-time ring the generators can reach — at sweep
// scale: millions of generated scenarios instead of a dozen curated ones.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Version is the current Spec format version, embedded in every encoded
// spec and campaign report so stored sweeps remain interpretable.
const Version = 1

// Expectation values: what the paper predicts for a spec, hence what the
// oracle enforces.
const (
	// ExpectExplore: the paper's possibility theorems apply — the run
	// must cover the ring and keep revisiting every node.
	ExpectExplore = "explore"
	// ExpectConfine: a theorem adversary drives the dynamics — the
	// robots must stay inside the proven confinement bound.
	ExpectConfine = "confine"
	// ExpectNone: the paper makes no claim (e.g. under-threshold teams
	// against oblivious dynamics); the oracle only reports metrics.
	ExpectNone = "none"
)

// Placement policies.
const (
	// PlaceRandom draws distinct nodes and chiralities from the spec seed.
	PlaceRandom = "random"
	// PlaceEven spreads the robots evenly, all right-is-clockwise.
	PlaceEven = "even"
	// PlaceAdjacent packs the robots on consecutive nodes from node 0.
	PlaceAdjacent = "adjacent"
)

// Canonical names of the built-in adaptive adversary families (registered
// by the bootstrap alongside the oblivious ones; see registry.go).
const (
	// FamilyBlockPointed is the budgeted stress adversary: every pointed
	// edge is removed, but nothing stays absent beyond Params.Budget.
	FamilyBlockPointed = "block-pointed"
	// FamilyConfineOne is the Theorem 5.1 adversary against one robot.
	FamilyConfineOne = "confine-one"
	// FamilyConfineTwo is the Theorem 4.1 adversary against two robots.
	FamilyConfineTwo = "confine-two"
)

// Params is the flat parameter bag of a spec's dynamics family: every
// oblivious family's parameters plus the adaptive adversaries' Budget.
// Each family declares the fields it reads, with their ranges, as
// FamilyDescriptor.Params. Unused fields stay zero and are omitted from
// JSON, so encoded specs carry exactly the parameters their family reads.
type Params struct {
	P      float64 `json:"p,omitempty"`
	Up     float64 `json:"up,omitempty"`
	Down   float64 `json:"down,omitempty"`
	Delta  int     `json:"delta,omitempty"`
	Edge   int     `json:"edge,omitempty"`
	From   int     `json:"from,omitempty"`
	Period int     `json:"period,omitempty"`
	T      int     `json:"t,omitempty"`
	Cut    int     `json:"cut,omitempty"`
	Budget int     `json:"budget,omitempty"`
}

// Spec declares one scenario completely: running the same Spec always
// replays the same execution bit for bit. The JSON encoding is
// deterministic (fixed field order, no maps), and DecodeSpec(Encode(s))
// is the identity on valid specs.
type Spec struct {
	// Version is the format version (always Version on encode).
	Version int `json:"version"`
	// Ring is the ring size n (>= 2).
	Ring int `json:"ring"`
	// Robots is the team size k (0 < k < n).
	Robots int `json:"robots"`
	// Algorithm is the robot algorithm by registry name (e.g. "pef3+").
	Algorithm string `json:"algorithm"`
	// Placement selects the initial configuration policy.
	Placement string `json:"placement"`
	// Family names the dynamics family by registry name (built-in or
	// registered via RegisterFamily).
	Family string `json:"family"`
	// Params is the family's parameter point.
	Params Params `json:"params"`
	// Horizon is the number of synchronous rounds to execute.
	Horizon int `json:"horizon"`
	// Seed drives placement and dynamics pseudo-randomness.
	Seed uint64 `json:"seed"`
	// Expect is the paper's prediction for this spec (ExpectExplore,
	// ExpectConfine, or ExpectNone). Empty means "derive": the oracle
	// fills it via Expectation.
	Expect string `json:"expect,omitempty"`
}

// Encode renders the spec as deterministic single-line JSON.
func (s Spec) Encode() ([]byte, error) {
	s.Version = Version
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s)
}

// DecodeSpec parses and validates an encoded spec. Decode is the inverse
// of Encode on valid specs.
func DecodeSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decode: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("scenario: decode: trailing data after spec")
	}
	if s.Version != Version {
		return Spec{}, fmt.Errorf("scenario: unsupported spec version %d (want %d)", s.Version, Version)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// ID returns the canonical string identifier of the spec: a compact,
// deterministic rendering of every field that distinguishes two scenarios.
// Equal specs have equal IDs and distinct valid specs have distinct IDs.
func (s Spec) ID() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d/n%d.k%d/%s/%s/%s", Version, s.Ring, s.Robots, s.Algorithm, s.Placement, s.Family)
	b.WriteString(s.Params.suffix())
	fmt.Fprintf(&b, "/h%d/s%d", s.Horizon, s.Seed)
	if s.Expect != "" {
		b.WriteString("/" + s.Expect)
	}
	return b.String()
}

// suffix renders the set parameters in fixed order, e.g. "{p=0.6,d=4}".
func (p Params) suffix() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if p.P != 0 {
		add("p", trimFloat(p.P))
	}
	if p.Up != 0 {
		add("up", trimFloat(p.Up))
	}
	if p.Down != 0 {
		add("down", trimFloat(p.Down))
	}
	if p.Delta != 0 {
		add("d", fmt.Sprint(p.Delta))
	}
	if p.Edge != 0 {
		add("e", fmt.Sprint(p.Edge))
	}
	if p.From != 0 {
		add("from", fmt.Sprint(p.From))
	}
	if p.Period != 0 {
		add("per", fmt.Sprint(p.Period))
	}
	if p.T != 0 {
		add("t", fmt.Sprint(p.T))
	}
	if p.Cut != 0 {
		add("cut", fmt.Sprint(p.Cut))
	}
	if p.Budget != 0 {
		add("b", fmt.Sprint(p.Budget))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// trimFloat renders a probability compactly ("0.6") yet exactly: the
// shortest decimal that round-trips, so distinct parameter values never
// collide in canonical IDs.
func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Validate checks structural well-formedness against the default
// registry: sizes in range, registered algorithm/placement/family/
// expectation names, declared parameter ranges, and the family's own
// structural constraints. It is exactly the override-free case of the
// oracle's validateForRun, so the declarative and run-time rule sets
// cannot drift.
func (s Spec) Validate() error {
	return validateForRun(s, RunOptions{})
}

// paperAlgorithm returns the paper algorithm proven to explore at (n, k) —
// the computable region of Table 1: three robots always suffice on n > k,
// and the small rings have their dedicated algorithms (two robots on the
// 3-ring, one on the 2-ring). Empty when the paper offers none.
func paperAlgorithm(n, k int) string {
	switch {
	case k >= 3 && n > k:
		return "pef3+"
	case k == 2 && n == 3:
		return "pef2"
	case k == 1 && n == 2:
		return "pef1"
	}
	return ""
}

// Expectation derives the paper's prediction for the spec via the default
// registry:
//
//   - families declaring a default property (the confinement adversaries
//     declare ExpectConfine) → that property;
//   - the matching paper algorithm on an in-threshold (n, k) against any
//     connected-over-time family → ExpectExplore;
//   - anything else (under-threshold teams on oblivious dynamics, baseline
//     algorithms, mismatched paper algorithms) → ExpectNone.
//
// Unregistered families used to fall through silently to ExpectNone
// (report-only); they are a loud failure now — Expectation panics, and the
// error-returning Registry.Expectation is the checked form the oracle
// uses.
func Expectation(s Spec) string {
	exp, err := DefaultRegistry().Expectation(s)
	if err != nil {
		panic(err)
	}
	return exp
}
