package robot

// Table is a finite-state algorithm whose persistent variables are dir and
// one memory bit (PEF_3+'s HasMovedPreviousStep; rules that never set it
// keep dir alone). Its Compute rule is two 16-entry truth tables over
// (memory, OtherRobots, EdgeDir, EdgeOpp): whether dir flips, and the next
// memory bit. One table serves both engines: NewCore interprets it on one
// robot, Lanes evaluates it as a word circuit on 64 seed lanes at once.
type Table struct {
	name string
	truth
	// gates computes both truth tables over lane words; flipReg and
	// nextReg are the registers holding their outputs (see Lanes).
	gates            []gate
	flipReg, nextReg uint8
}

// NewTable builds a table from a readable rule, evaluated once on all 16
// (memory, view) inputs: flip reports whether dir turns, next is the next
// value of the memory bit. Every robot starts at dir = Left, memory false.
func NewTable(name string, rule func(moved bool, v View) (flip, next bool)) Table {
	t := Table{name: name}
	for i := uint(0); i < 16; i++ {
		flip, next := rule(i&8 != 0, View{OtherRobots: i&4 != 0, EdgeDir: i&2 != 0, EdgeOpp: i&1 != 0})
		t.flip |= bit(flip) << i
		t.next |= bit(next) << i
	}
	c := compiler{shared: map[gate]uint8{}}
	t.flipReg = c.build(t.flip, 4)
	t.nextReg = c.build(t.next, 4)
	t.gates = c.gates
	return t
}

func bit(b bool) uint16 {
	if b {
		return 1
	}
	return 0
}

// index is the truth-table position of a (memory, view) input.
func index(moved bool, v View) uint16 {
	return bit(moved)<<3 | bit(v.OtherRobots)<<2 | bit(v.EdgeDir)<<1 | bit(v.EdgeOpp)
}

// truth holds the two truth tables, bit index(memory, view) of each.
type truth struct{ flip, next uint16 }

// Rule looks up the table: whether dir flips on (moved, v), and the next
// memory bit.
func (t truth) Rule(moved bool, v View) (flip, next bool) {
	i := index(moved, v)
	return t.flip>>i&1 != 0, t.next>>i&1 != 0
}

// Name implements Algorithm.
func (t Table) Name() string { return t.name }

// Same reports whether t and u compute the same rule, whatever their
// names: both engines read only the truth tables.
func (t Table) Same(u Table) bool { return t.truth == u.truth }

// NewCore implements Algorithm. The state renders as StateDirMoved when
// the rule ever sets the memory bit and as StateDir otherwise.
func (t Table) NewCore() Core {
	c := &tableCore{truth: t.truth, dir: Left, kind: StateDir}
	if t.next != 0 {
		c.kind = StateDirMoved
	}
	return c
}

type tableCore struct {
	truth
	dir   LocalDir
	moved bool // the memory bit
	kind  StateKind
}

func (c *tableCore) Dir() LocalDir { return c.dir }

func (c *tableCore) Compute(v View) {
	flip, next := c.Rule(c.moved, v)
	if flip {
		c.dir = c.dir.Opposite()
	}
	c.moved = next
}

func (c *tableCore) State() StateCode { return StateCode{Kind: c.kind, Dir: c.dir, Flag: c.moved} }

// LaneView is the Look-phase view of one robot across 64 seed lanes: each
// field is the per-lane value of the corresponding View predicate, bit l
// holding lane l's bit.
type LaneView struct {
	// EdgeDir is ExistsEdge(dir) per lane (dir as of the Look phase).
	EdgeDir uint64
	// EdgeOpp is ExistsEdge(opposite dir) per lane.
	EdgeOpp uint64
	// OtherRobots is ExistsOtherRobotsOnCurrentNode() per lane.
	OtherRobots uint64
}

// Lanes is the rule on 64 lanes at once: bit l of moved and of the view
// words is lane l's input, and bit l of the results is lane l's flip and
// next memory bit, exactly as Rule computes them. The lockstep engine
// keeps each robot's dir and memory as lane words and calls Lanes once
// per robot per round.
func (t *Table) Lanes(moved uint64, v LaneView) (flip, next uint64) {
	var r [firstGate + maxGates]uint64
	r[regOnes] = ^uint64(0)
	r[regEdgeOpp], r[regEdgeDir], r[regOthers], r[regMoved] = v.EdgeOpp, v.EdgeDir, v.OtherRobots, moved
	for i, g := range t.gates {
		s := r[g.s]
		r[firstGate+i] = s&r[g.a] | ^s&r[g.b]
	}
	return r[t.flipReg], r[t.nextReg]
}

// The circuit's registers: two constants, the four inputs (register 2+b
// holds the input at truth-table index bit b), then one per gate.
const (
	regZero = iota
	regOnes
	regEdgeOpp
	regEdgeDir
	regOthers
	regMoved
	firstGate
	// maxGates bounds a reduced mux tree of two 4-input functions: at most
	// 2, 4 and 8 distinct nodes test the top three inputs, and the last
	// input yields only its complement as a gate.
	maxGates = 15
)

// gate is one node of a reduced mux tree: s ? a : b over lane words. With
// a constant input it computes an AND or an OR: s ? x : 0 is s & x, and
// s ? 1 : x is s | x.
type gate struct{ s, a, b uint8 }

// compiler turns truth tables into one gate list by Shannon expansion on
// the memory bit first and EdgeOpp last. It folds constants (a node whose
// branches agree is its branch, s ? 1 : 0 is s itself) and reuses
// identical nodes across both tables.
type compiler struct {
	gates  []gate
	shared map[gate]uint8
}

// build returns the register that holds tt, a truth table over the low
// vars inputs.
func (c *compiler) build(tt uint16, vars uint) uint8 {
	size := uint(1) << vars
	switch all := uint16(1<<size - 1); tt {
	case 0:
		return regZero
	case all:
		return regOnes
	}
	half := size / 2
	s := uint8(regEdgeOpp + vars - 1)
	g := gate{s, c.build(tt>>half, vars-1), c.build(tt&(1<<half-1), vars-1)}
	switch {
	case g.a == g.b:
		return g.a
	case g.a == regOnes && g.b == regZero:
		return s
	}
	if r, ok := c.shared[g]; ok {
		return r
	}
	r := uint8(firstGate + len(c.gates))
	c.gates = append(c.gates, g)
	c.shared[g] = r
	return r
}
