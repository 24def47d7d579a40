package plan

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gocbs/internal/api"
	"gocbs/internal/atomicfile"
	"gocbs/internal/bytecode"
	"gocbs/internal/profile"
)

// ErrUnknownProgram marks a plan request for a program the service's
// compiler cannot resolve; servers map it to 404.
var ErrUnknownProgram = errors.New("unknown program")

// ErrUnknownVersion marks a plan request for a program version this
// daemon cannot produce a plan for — the requester is running a build
// the root does not know. Servers map it to 404 (and count it): the
// puller keeps running unoptimized, which is the safe failure mode,
// instead of part-applying a plan for a different build.
var ErrUnknownVersion = errors.New("unknown program version")

// ServiceConfig wires a Service to its surroundings. Source and
// Version come from the aggregation store; CompileProgram resolves a
// program name (and optionally a specific build version) to its
// pristine bytecode.
type ServiceConfig struct {
	// Source returns the current aggregated graph (a consistent
	// snapshot) for one program build. version is the build's
	// content-addressed identity, "" while the entry is being resolved.
	// A store without per-version graphs may ignore both arguments.
	Source func(program, version string) *profile.DCG
	// Version returns the mutation counters (merges applied, decay
	// epochs) of the graph Source would return for this program build.
	// A pair that has not changed means that graph has not changed, so
	// the cached plan is served without asking Source — and counters
	// scoped to the program are what keep ingest for program A from
	// costing program B's pulls a snapshot.
	Version func(program, version string) (merges, epochs uint64)
	// CompileProgram resolves a program name to the pristine program a
	// plan is extracted from. version is the requested build identity:
	// "" asks for the daemon's canonical build; a resolver that cannot
	// produce the exact requested build must return an error wrapping
	// ErrUnknownVersion (returning a different build is detected and
	// refused by the service). Return an error wrapping
	// ErrUnknownProgram for names that do not exist. The result is
	// owned by the service (it is cloned before every mutation).
	CompileProgram func(name, version string) (*bytecode.Program, error)
	// Params selects the policy.
	Params Params
	// StateDir, when non-empty, persists each build's latest plan to
	// plan-<program>@<version>.plnb so epochs survive restarts: a
	// restarted daemon whose restored graph compiles to the same
	// decisions serves the byte-identical prior plan instead of
	// resetting to epoch 1.
	StateDir string
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Service compiles, caches, and persists plans per (program, version).
// It is safe for concurrent use by HTTP handlers and background
// refresh ticks.
type Service struct {
	cfg ServiceConfig

	mu sync.Mutex
	// entries is keyed "program@version" with the build's actual
	// version; canonical maps a program name to the version its
	// unversioned requests resolve to.
	entries   map[string]*entry
	canonical map[string]string
	stats     api.PlanMetrics // the service's counters; Stats fills in Programs
}

type entry struct {
	program  string
	version  string
	pristine *bytecode.Program
	plan     *Plan
	// cond is the conditioned graph plan was compiled from, set only by
	// a compile that succeeded (nil beside a nil or a restored plan);
	// merges/epochs the store version last seen to condition to it.
	cond           *profile.DCG
	merges, epochs uint64
}

// NewService returns a plan service; it validates nothing until the
// first request.
func NewService(cfg ServiceConfig) *Service {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Service{
		cfg:       cfg,
		entries:   make(map[string]*entry),
		canonical: make(map[string]string),
	}
}

// Stats returns the service's counters: Programs, Computed, Unchanged,
// Skipped, CompileErrors and VersionMismatches. The request counters are
// the server's to fill in.
func (s *Service) Stats() api.PlanMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Programs = len(s.entries)
	return st
}

// PlanForVersion returns the current plan for one build of a program,
// recompiling only when that build's conditioned graph — what the
// policy sees of the aggregated one — has changed since the cached plan
// was compiled. An empty version asks for the daemon's canonical build;
// a non-empty one demands that exact build: if the resolver cannot
// produce it the request fails with ErrUnknownVersion instead of
// serving a plan whose decisions would silently misapply. The first
// request for a build compiles its pristine bytecode and, with a state
// dir, restores the persisted prior plan so epochs continue across
// restarts.
func (s *Service) PlanForVersion(program, version string) (*Plan, error) {
	if !ValidProgramName(program) {
		return nil, fmt.Errorf("%w: invalid program name %q", ErrUnknownProgram, program)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, err := s.planForLocked(program, version)
	switch {
	case err == nil:
	case errors.Is(err, ErrUnknownVersion):
		s.stats.VersionMismatches++
	case errors.Is(err, ErrUnknownProgram):
		// The requester's mistake; nothing failed to compile.
	default:
		s.stats.CompileErrors++
	}
	return p, err
}

func (s *Service) planForLocked(program, version string) (*Plan, error) {
	actual := version
	if actual == "" {
		actual = s.canonical[program]
	}
	e := s.entries[program+"@"+actual]
	if e == nil {
		pristine, err := s.cfg.CompileProgram(program, version)
		if err != nil {
			return nil, err
		}
		got := pristine.Version()
		if version != "" && got != version {
			return nil, fmt.Errorf("%w: %s@%s (this daemon builds %s)",
				ErrUnknownVersion, program, version, got)
		}
		if version == "" {
			s.canonical[program] = got
		}
		e = s.entries[program+"@"+got]
		if e == nil {
			e = &entry{
				program:  program,
				version:  got,
				pristine: pristine,
				plan:     s.restore(program, got),
			}
			s.entries[program+"@"+got] = e
		}
	}
	// Two levels, cheapest first: unmoved counters mean an unmoved graph;
	// and most pushes leave every edge on its grid point, where compiling
	// the same conditioned graph would return e.plan itself (see Compile).
	merges, epochs := s.cfg.Version(e.program, e.version)
	if e.cond != nil && e.merges == merges && e.epochs == epochs {
		return e.plan, nil
	}
	g := s.cfg.Source(e.program, e.version)
	if g == nil {
		g = profile.NewDCG()
	}
	q := newGrid(floorWeight, gridBand)
	if e.cond != nil && q.conditionsTo(g, e.cond) {
		e.merges, e.epochs = merges, epochs
		s.stats.Skipped++
		return e.plan, nil
	}
	cond := q.condition(g)
	prior := e.plan
	p, err := compileConditioned(e.program, e.pristine, e.version, cond, s.cfg.Params, prior)
	if err != nil {
		return nil, err
	}
	e.plan, e.cond, e.merges, e.epochs = p, cond, merges, epochs
	if p == prior {
		s.stats.Unchanged++
		return p, nil
	}
	s.stats.Computed++
	s.cfg.Logf("plan %s@%s: epoch %d, %d decisions, hash %016x",
		e.program, e.version, p.Epoch, len(p.Decisions), p.Hash)
	if err := s.persist(e.program, e.version, p); err != nil {
		// Serving a fresh plan beats failing the request; the next
		// change will retry the write.
		s.cfg.Logf("plan %s@%s: persist failed: %v", e.program, e.version, err)
	}
	return p, nil
}

// RefreshAll recompiles the plan of every build that has been requested
// at least once. cbsd calls it from its decay and checkpoint ticks so
// pullers usually receive precomputed plans.
func (s *Service) RefreshAll() {
	s.mu.Lock()
	builds := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		builds = append(builds, e)
	}
	s.mu.Unlock()
	for _, b := range builds {
		if _, err := s.PlanForVersion(b.program, b.version); err != nil {
			s.cfg.Logf("plan refresh %s@%s: %v", b.program, b.version, err)
		}
	}
}

// planFile returns the persistence path for one build's plan. Program
// names pass ValidProgramName and versions are hex, neither containing
// path separators or '@', so the name cannot escape the state dir and
// maps back to its key unambiguously.
func planFile(dir, program, version string) string {
	return filepath.Join(dir, "plan-"+program+"@"+version+".plnb")
}

// restore loads the persisted prior plan for one build, if any. The
// restored plan must prove it belongs to this exact build — name AND
// content-addressed version — or it is discarded with a log line. Read
// errors are logged and treated as "no prior": a corrupt plan file
// costs an epoch reset, not an outage.
func (s *Service) restore(program, version string) *Plan {
	if s.cfg.StateDir == "" {
		return nil
	}
	path := planFile(s.cfg.StateDir, program, version)
	b, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.cfg.Logf("plan %s@%s: read prior %s: %v", program, version, path, err)
		}
		return nil
	}
	p, err := Decode(b, version)
	if err == nil && p.Program != program {
		err = fmt.Errorf("plan is for program %s", p.Program)
	}
	if err != nil {
		s.cfg.Logf("plan %s@%s: discarding prior %s (epoch will reset): %v", program, version, path, err)
		return nil
	}
	return p
}

// persist atomically replaces the plan file (the same discipline as the
// store checkpoints).
func (s *Service) persist(program, version string, p *Plan) error {
	if s.cfg.StateDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return err
	}
	return atomicfile.Write(planFile(s.cfg.StateDir, program, version), p)
}
