package profiler

import (
	"gocbs/internal/bytecode"
	"gocbs/internal/profile"
	"gocbs/internal/vm"
)

// Flavour selects which of the paper's two implementations the CBS
// profiler models.
type Flavour int

const (
	// FlavourRVM models the Jikes RVM implementation (§5.1): the timer
	// sets the tri-state yieldpoint word to "all yieldpoints taken";
	// the first taken yieldpoint switches it to "prologues/epilogues
	// only" and opens the sampling window; both method entries and
	// exits are counted and sampled.
	FlavourRVM Flavour = iota
	// FlavourJ9 models the J9 implementation (§5.2): an overloaded
	// method-entry check only — the window opens directly at the timer
	// tick, only entries are counted and sampled, and returns execute
	// no yieldpoint at all (see EpilogueYieldpoints).
	FlavourJ9
)

func (f Flavour) String() string {
	if f == FlavourJ9 {
		return "J9"
	}
	return "JikesRVM"
}

// EpilogueYieldpoints is what a VM modelling this flavour sets
// vm.VM.EpilogueYieldpoints to: J9 checks on method entry only, so its
// returns execute no yieldpoint (§5.2).
func (f Flavour) EpilogueYieldpoints() bool { return f != FlavourJ9 }

// SkipPolicy selects how the initial skip count for each profiling
// window is chosen from [1..STRIDE] (§4: randomized so all calls in
// the window have an equal chance of being profiled).
type SkipPolicy int

const (
	// SkipRandom draws the initial skip from a seeded PRNG.
	SkipRandom SkipPolicy = iota
	// SkipRoundRobin cycles deterministically through [1..STRIDE].
	SkipRoundRobin
	// SkipImmediate always samples the first event of the window,
	// reintroducing the post-interrupt skew CBS is designed to avoid;
	// kept as the ablation baseline (§4, E9).
	SkipImmediate
)

func (p SkipPolicy) String() string {
	switch p {
	case SkipRoundRobin:
		return "round-robin"
	case SkipImmediate:
		return "immediate"
	default:
		return "random"
	}
}

// Config parameterizes a CBS profiler. The zero value is not useful;
// Stride and SamplesPerTick must be at least 1.
type Config struct {
	// Stride is the paper's STRIDE: every Stride-th call event inside
	// a profiling window is sampled.
	Stride int
	// SamplesPerTick is SAMPLES_PER_TIMER_INTERRUPT: the window closes
	// after this many samples.
	SamplesPerTick int
	// Flavour selects the Jikes RVM or J9 attachment (see Flavour).
	Flavour Flavour
	// SkipPolicy selects the initial-skip strategy (default random).
	SkipPolicy SkipPolicy
	// Seed drives the random skip policy; vary it to model
	// run-to-run variation.
	Seed int64
	// FullStack additionally captures the entire call path per sample
	// into a calling-context tree (the §8 context-sensitive
	// extension), paying the per-frame walk cost for the whole stack.
	FullStack bool
}

// TimerOnly returns the configuration equivalent to the original
// timer-based mechanism: the paper evaluates it as grid point
// Stride=1, Samples=1 (§6.2).
func TimerOnly(fl Flavour) Config {
	return Config{Stride: 1, SamplesPerTick: 1, Flavour: fl}
}

// DefaultCBS returns the operating point CBS runs at wherever a study
// does not sweep it: Stride=3, Samples=16, the paper's Jikes RVM choice
// (§6.2, Table 3).
func DefaultCBS(fl Flavour) Config {
	return Config{Stride: 3, SamplesPerTick: 16, Flavour: fl}
}

// CBS is the paper's counter-based sampling profiler (Figure 3).
//
// A timer tick arms the profiler; sampling then proceeds by counting
// call events (method entries, plus exits in the RVM flavour) and
// sampling every Stride-th one by walking the top of the call stack
// and recording the caller→callee edge, until SamplesPerTick samples
// have been taken, at which point the yieldpoint word is cleared and
// the program runs at full speed until the next tick.
type CBS struct {
	cfg Config

	// Graph accumulates the sampled dynamic call graph and counts the
	// windows that filled it (DCG.Windows).
	Graph *profile.DCG
	// Tree accumulates full call paths when cfg.FullStack is set.
	Tree *profile.CCT

	rng     *rng
	rr      int    // round-robin cursor
	tickKey uint64 // Seed hashed: where this sampler's ticks fall (PlaceTick)

	armed       bool // tick seen, window not yet opened (RVM flavour)
	active      bool
	skipped     int
	samplesLeft int

	// What the sampler did. Every tick opens a window or finds the last
	// one still open and is lost: Ticks == Graph.Windows() + Coalesced,
	// plus one while a tick is armed (RVM: seen, its first yieldpoint not
	// yet taken).
	Ticks        uint64
	Coalesced    uint64
	WindowEvents uint64
	SamplesTaken uint64
}

var (
	_ vm.Profiler      = (*CBS)(nil)
	_ vm.TickListener  = (*CBS)(nil)
	_ vm.TickPlacer    = (*CBS)(nil)
	_ vm.YieldListener = (*CBS)(nil)
)

// NewCBS validates cfg and returns a CBS profiler.
func NewCBS(cfg Config) *CBS {
	if cfg.Stride < 1 {
		cfg.Stride = 1
	}
	if cfg.SamplesPerTick < 1 {
		cfg.SamplesPerTick = 1
	}
	c := &CBS{
		cfg:     cfg,
		Graph:   profile.NewDCG(),
		rng:     newRNG(cfg.Seed),
		tickKey: mix64(uint64(cfg.Seed)),
	}
	if cfg.FullStack {
		c.Tree = profile.NewCCT()
	}
	return c
}

// Name describes the profiler for reports.
func (c *CBS) Name() string {
	if c.cfg.Stride == 1 && c.cfg.SamplesPerTick == 1 {
		return "timer-only"
	}
	return "cbs"
}

// Config returns the profiler's configuration.
func (c *CBS) Config() Config { return c.cfg }

// initialSkip picks the first countdown value for a new window.
func (c *CBS) initialSkip() int {
	switch c.cfg.SkipPolicy {
	case SkipRoundRobin:
		c.rr++
		return 1 + (c.rr-1)%c.cfg.Stride
	case SkipImmediate:
		return 1
	default:
		return 1 + c.rng.intn(c.cfg.Stride)
	}
}

// PlaceTick implements vm.TickPlacer: tick k falls uniformly within its
// period, by a hash of (Seed, k). The modelled program is deterministic,
// so ticks at exactly k·period open the windows of every VM of a build at
// the same program points, and K VMs repeat one aliasing pattern K times
// (§4's argument for the random skip, one level up); where a real timer
// interrupt lands is the paper's run-to-run variation. The skip stream is
// left alone, and the seed is hashed first: a fleet's seeds are
// consecutive, and xorshift64*'s first output for seed 2 is twice seed 1's.
func (c *CBS) PlaceTick(k, period uint64) uint64 {
	return mix64(c.tickKey+k) % period
}

// OnTimerTick implements vm.TickListener: the timer interrupt sets the
// yieldpoint control word (§5.1). In the RVM flavour it requests all
// yieldpoints and the window opens at the first one taken; in the J9
// flavour the window opens immediately (the "interrupt" just sets the
// overloaded entry flag).
func (c *CBS) OnTimerTick(m *vm.VM) {
	c.Ticks++
	if c.active || c.armed {
		c.Coalesced++ // previous window still open: the tick is lost
		return
	}
	if c.cfg.Flavour == FlavourRVM {
		c.armed = true
		m.ControlWord = vm.ControlAll
		return
	}
	c.openWindow(m)
}

func (c *CBS) openWindow(m *vm.VM) {
	c.Graph.SetWindows(c.Graph.Windows() + 1)
	c.active = true
	c.skipped = c.initialSkip()
	c.samplesLeft = c.cfg.SamplesPerTick
	m.ControlWord = vm.ControlPrologues
}

// OnYieldpoint implements vm.YieldListener: the Figure 3 countdown.
func (c *CBS) OnYieldpoint(m *vm.VM, kind vm.YieldKind) {
	if c.armed {
		// First yieldpoint taken in response to the timer (RVM
		// flavour): switch the control word to -1 and enable
		// counter-based sampling (§5.1).
		c.armed = false
		c.openWindow(m)
		return
	}
	if !c.active || kind == vm.YieldBackedge {
		return
	}
	if c.cfg.Flavour == FlavourJ9 && kind != vm.YieldPrologue {
		return // J9 counts method entries only
	}
	// One executed counting event: decrement and test (Figure 3).
	m.ChargeProfiling(m.Cost.CounterUpdate)
	c.WindowEvents++
	c.skipped--
	if c.skipped > 0 {
		return
	}
	c.takeSample(m)
	c.skipped = c.cfg.Stride
	c.samplesLeft--
	if c.samplesLeft <= 0 {
		c.active = false
		m.ControlWord = vm.ControlNone
	}
}

// takeSample walks the call stack and updates the profile repository.
func (c *CBS) takeSample(m *vm.VM) {
	c.SamplesTaken++
	m.ChargeProfiling(m.Cost.SampleBase + 2*m.Cost.SamplePerFrame)
	caller, site, callee, ok := m.TopCallEdge()
	if ok {
		c.Graph.AddSample(profile.Edge{Caller: caller.ID, Site: site, Callee: callee.ID}, 1)
	}
	if c.Tree != nil {
		depth := m.Depth()
		if depth > 2 {
			// The flat sample already paid for two frames.
			m.ChargeProfiling(uint64(depth-2) * m.Cost.SamplePerFrame)
		}
		path := capturePath(m)
		c.Tree.AddPath(path, 1)
	}
}

// capturePath records the current stack outermost-first as CCT steps.
func capturePath(m *vm.VM) []profile.PathStep {
	var rev []profile.PathStep
	m.WalkCallers(func(meth *bytecode.Method, site int) bool {
		rev = append(rev, profile.PathStep{Site: site, Method: meth.ID})
		return true
	})
	// WalkCallers is innermost-first; CCT paths are outermost-first.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
