package dcgstore

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"gocbs/internal/api"
	"gocbs/internal/bytecode"
	"gocbs/internal/profile"
)

// Per-(program, version) aggregation.
//
// A Store merges every delta it is fed into one graph, which is exactly
// the silent-corruption bug the content-addressed version identity
// exists to fix: two builds pushed under one program name alias each
// other's edge IDs — method 17 in build A is not method 17 in build B —
// and the merged aggregate is garbage that still looks plausible. A
// Multi keeps one substore per api.ProgramKey so each build's profile
// is internally consistent, plus a default substore for unstamped
// legacy pushes (the pre-versioning behaviour, preserved bit-for-bit).
//
// When a new version of a program registers its manifest, edges whose
// caller, callee, and call-site owner all have unchanged method bodies
// are carried forward from the previous version's graph into the new
// one (with IDs remapped), KRAB-style: a rolling upgrade starts from
// the profile mass that is still valid instead of from zero.

// MaxProgramKeys bounds how many (program, version) substores a Multi
// will create; a hostile pusher inventing version strings must not be
// able to grow server memory without bound. Creation past the cap is
// refused (the daemon answers 503 capacity).
const MaxProgramKeys = 256

// Multi is a set of Stores keyed by (program, version), plus a default
// Store for unkeyed pushes. Safe for concurrent use.
type Multi struct {
	def    *Store
	shards int

	mu        sync.RWMutex
	subs      map[api.ProgramKey]*Store
	manifests map[api.ProgramKey]*bytecode.Manifest
	// manifestOrder keeps registration order — succession matters when
	// manifests are relayed upstream (a root registering v2 before v1
	// would get the carry-forward direction wrong).
	manifestOrder []api.ProgramKey
	carried       map[api.ProgramKey]*profile.DCG
	latest        map[string]string // program -> most recently registered version
	// touched records the last write-path access (push-side For,
	// manifest registration) per substore; EvictRetired uses it to find
	// versions the fleet has moved off of. Read paths do not touch —
	// the merged snapshot visits every key and would pin retired
	// versions forever.
	touched map[api.ProgramKey]time.Time
	evicted uint64
	now     func() time.Time
}

// NewMulti returns a Multi whose substores (including the default) use
// at least shards shards.
func NewMulti(shards int) *Multi {
	return NewMultiWithDefault(New(shards), shards)
}

// NewMultiWithDefault wraps an existing Store as the default substore —
// the migration path for callers (daemon.NewInProcess) that built their
// Store first.
func NewMultiWithDefault(def *Store, shards int) *Multi {
	return &Multi{
		def:       def,
		shards:    shards,
		subs:      make(map[api.ProgramKey]*Store),
		manifests: make(map[api.ProgramKey]*bytecode.Manifest),
		carried:   make(map[api.ProgramKey]*profile.DCG),
		latest:    make(map[string]string),
		touched:   make(map[api.ProgramKey]time.Time),
		now:       time.Now,
	}
}

// Default returns the substore unstamped pushes land in.
func (m *Multi) Default() *Store { return m.def }

// Stats sums the default substore and every keyed substore, so a fleet
// that stamps its pushes shows up in the daemon's figures. As cheap as
// Store.Stats (published snapshots and counters, no shard locks).
// Shards is per substore, Epoch the furthest any substore has decayed
// (DecayAll ages them together; a substore created later starts at 0),
// and Pushers counts sequence streams: a pusher ID that has pushed
// under two builds counts once per build.
func (m *Multi) Stats() Stats {
	st := m.def.Stats()
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, sub := range m.subs {
		s := sub.Stats()
		st.Edges += s.Edges
		st.TotalWeight += s.TotalWeight
		st.SamplesIngested += s.SamplesIngested
		st.Merges += s.Merges
		st.Pushers += s.Pushers
		st.Duplicates += s.Duplicates
		if s.Epoch > st.Epoch {
			st.Epoch = s.Epoch
		}
	}
	return st
}

// validKey bounds wire-supplied key components. Program names are
// fully validated at the daemon layer (plan.ValidProgramName); here we
// enforce only what keeps the key maps and persistence file names
// sound.
func validKey(key api.ProgramKey) bool {
	if key.Program == "" || len(key.Program) > 64 {
		return false
	}
	for i := 0; i < len(key.Program); i++ {
		if key.Program[i] == '@' || key.Program[i] == '/' {
			return false
		}
	}
	return api.ValidProgramVersion(key.Version)
}

// Lookup returns the substore for key, or nil if it does not exist.
// The zero key names the default substore.
func (m *Multi) Lookup(key api.ProgramKey) *Store {
	if key.IsZero() {
		return m.def
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.subs[key]
}

// For returns the substore for key, creating it on first use. Returns
// nil when the key is malformed or the substore ledger is full.
func (m *Multi) For(key api.ProgramKey) *Store {
	if key.IsZero() {
		return m.def
	}
	if !validKey(key) {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.forLocked(key)
}

func (m *Multi) forLocked(key api.ProgramKey) *Store {
	if s := m.subs[key]; s != nil {
		m.touched[key] = m.now()
		return s
	}
	if len(m.subs) >= MaxProgramKeys {
		return nil
	}
	s := New(m.shards)
	m.subs[key] = s
	m.touched[key] = m.now()
	if m.latest[key.Program] == "" {
		// First sighting of this program establishes succession; a
		// manifest registration for a newer build will advance it.
		m.latest[key.Program] = key.Version
	}
	return s
}

// Keys lists the live (program, version) keys in canonical order.
func (m *Multi) Keys() []api.ProgramKey {
	m.mu.RLock()
	defer m.mu.RUnlock()
	keys := make([]api.ProgramKey, 0, len(m.subs))
	for k := range m.subs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	return keys
}

// NumKeys returns the number of live (program, version) substores.
func (m *Multi) NumKeys() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.subs)
}

// LatestVersion returns the most recent version registered (or first
// pushed) for program, "" when the program is unknown.
func (m *Multi) LatestVersion(program string) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.latest[program]
}

// Manifest returns the registered manifest for key, nil when none.
func (m *Multi) Manifest(key api.ProgramKey) *bytecode.Manifest {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.manifests[key]
}

// Manifests returns the registered manifests keyed by (program,
// version). Manifests are immutable once registered, so sharing the
// pointers is safe.
func (m *Multi) Manifests() map[api.ProgramKey]*bytecode.Manifest {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[api.ProgramKey]*bytecode.Manifest, len(m.manifests))
	for k, v := range m.manifests {
		out[k] = v
	}
	return out
}

// ManifestsInOrder returns the registered manifests in registration
// order — what a federation leaf relays upstream so the root registers
// builds in the same succession and its carry-forward runs the same
// direction. (After a restore the order is the checkpoint index's
// canonical key order; the relay sent-set persists separately, so only
// never-relayed manifests are affected.)
func (m *Multi) ManifestsInOrder() []*bytecode.Manifest {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*bytecode.Manifest, 0, len(m.manifestOrder))
	for _, k := range m.manifestOrder {
		if man := m.manifests[k]; man != nil {
			out = append(out, man)
		}
	}
	return out
}

// Carried returns a copy of the graph carried forward into key's
// substore when it was registered (nil when nothing was carried). The
// per-version conservation invariant is: substore snapshot == carried
// graph + the exact sum of acknowledged deltas.
func (m *Multi) Carried(key api.ProgramKey) *profile.DCG {
	m.mu.RLock()
	g := m.carried[key]
	m.mu.RUnlock()
	if g == nil {
		return nil
	}
	return g.Clone()
}

// RegisterManifest records one build's method/site manifest and, when a
// predecessor version of the same program has a registered manifest,
// carries its still-valid profile edges into the new version's
// substore. Idempotent: re-registering a (program, version) already on
// file acknowledges without re-carrying (so an at-least-once client
// cannot double the carried weight).
func (m *Multi) RegisterManifest(man *bytecode.Manifest) (carriedEdges int, carriedWeight float64, err error) {
	key := api.ProgramKey{Program: man.Program, Version: man.Version}
	if !validKey(key) {
		return 0, 0, fmt.Errorf("dcgstore: bad manifest key %q", key.String())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.manifests[key] != nil {
		m.touched[key] = m.now()
		if c := m.carried[key]; c != nil {
			return c.NumEdges(), c.Total(), nil
		}
		return 0, 0, nil
	}
	sub := m.forLocked(key)
	if sub == nil {
		return 0, 0, fmt.Errorf("dcgstore: program ledger full (%d keys)", len(m.subs))
	}
	prevVer := m.latest[man.Program]
	if prevVer != "" && prevVer != man.Version {
		prevKey := api.ProgramKey{Program: man.Program, Version: prevVer}
		if prevM, prevS := m.manifests[prevKey], m.subs[prevKey]; prevM != nil && prevS != nil {
			carried := CarryForward(prevS.Snapshot(), prevM, man)
			if carried.NumEdges() > 0 {
				sub.MergeDCG(carried)
				m.carried[key] = carried
				carriedEdges, carriedWeight = carried.NumEdges(), carried.Total()
			}
		}
	}
	m.manifests[key] = man
	m.manifestOrder = append(m.manifestOrder, key)
	m.latest[man.Program] = man.Version
	return carriedEdges, carriedWeight, nil
}

// MergedSnapshot returns a consistent merge of the default substore and
// every keyed substore — the cross-version view the unparameterized
// /snapshot serves. The merge is commutative and the snapshot per
// substore is consistent; cross-substore skew is bounded by the call
// itself (substores are independent stores).
func (m *Multi) MergedSnapshot() *profile.DCG {
	g := m.def.Snapshot()
	for _, key := range m.Keys() {
		if sub := m.Lookup(key); sub != nil {
			g.Merge(sub.Snapshot())
		}
	}
	return g
}

// DecayAll runs one decay epoch on the default substore and every keyed
// substore, returning the total number of edges pruned.
func (m *Multi) DecayAll(factor, prune float64) int {
	pruned := m.def.Decay(factor, prune)
	for _, key := range m.Keys() {
		if sub := m.Lookup(key); sub != nil {
			pruned += sub.Decay(factor, prune)
		}
	}
	return pruned
}

// EvictRetired removes substores for retired versions — any (program,
// version) that is no longer the program's latest version and has seen
// no write-path access (push or manifest registration) for at least
// ttl. The latest version of every program is always kept, however
// idle, as is a program's sole version (never superseded = not
// retired). Eviction drops the substore, its manifest, and its
// carried-forward graph; the version can still come back cold if a
// straggler pushes under it again, which is exactly the slot the cap
// in forLocked guards. Returns how many substores were evicted.
func (m *Multi) EvictRetired(ttl time.Duration) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	cutoff := m.now().Add(-ttl)
	n := 0
	for key := range m.subs {
		if m.latest[key.Program] == key.Version {
			continue
		}
		if t, ok := m.touched[key]; ok && t.After(cutoff) {
			continue
		}
		delete(m.subs, key)
		delete(m.touched, key)
		delete(m.carried, key)
		delete(m.manifests, key)
		n++
	}
	if n > 0 {
		order := m.manifestOrder[:0]
		for _, key := range m.manifestOrder {
			if m.manifests[key] != nil {
				order = append(order, key)
			}
		}
		m.manifestOrder = order
		m.evicted += uint64(n)
	}
	return n
}

// Evicted returns the total number of substores EvictRetired has
// dropped over the Multi's lifetime.
func (m *Multi) Evicted() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.evicted
}

// SetClock replaces the idle-tracking clock (tests only).
func (m *Multi) SetClock(now func() time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = now
}

// CarryForward computes the profile mass of old that remains valid in
// the build described by newM: edges whose caller, callee, and site
// owner all have name+body-identical methods in both manifests, with
// method and site IDs remapped to the new build's numbering. Edges
// touching any changed method are dropped — their shape may have
// changed, and a wrong edge is worse than a cold one.
func CarryForward(old *profile.DCG, oldM, newM *bytecode.Manifest) *profile.DCG {
	out := profile.NewDCG()
	if old == nil || oldM == nil || newM == nil {
		return out
	}
	newByName := make(map[string]int, len(newM.Methods))
	for i, f := range newM.Methods {
		if f.Name != "" {
			newByName[f.Name] = i
		}
	}
	methodMap := make(map[int]int, len(oldM.Methods))
	for i, f := range oldM.Methods {
		if f.Name == "" {
			continue
		}
		if j, ok := newByName[f.Name]; ok && newM.Methods[j].Hash == f.Hash {
			methodMap[i] = j
		}
	}
	newSite := make(map[bytecode.SiteFingerprint]int, len(newM.Sites))
	for s, sf := range newM.Sites {
		newSite[sf] = s
	}
	siteMap := make(map[int]int, len(oldM.Sites))
	for s, sf := range oldM.Sites {
		if sf.Owner < 0 {
			continue
		}
		nOwner, ok := methodMap[sf.Owner]
		if !ok {
			continue
		}
		if ns, ok := newSite[bytecode.SiteFingerprint{Owner: nOwner, PC: sf.PC}]; ok {
			siteMap[s] = ns
		}
	}
	for _, e := range old.Edges() {
		nc, ok := methodMap[e.Caller]
		if !ok {
			continue
		}
		ne, ok := methodMap[e.Callee]
		if !ok {
			continue
		}
		ns, ok := siteMap[e.Site]
		if !ok {
			continue
		}
		out.AddSample(profile.Edge{Caller: nc, Site: ns, Callee: ne}, old.Weight(e))
	}
	return out
}
