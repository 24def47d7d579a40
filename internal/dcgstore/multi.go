package dcgstore

import (
	"fmt"
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
// is internally consistent. The store is keyed from the start: pushes
// that carry no program identity land in the substore under the zero
// key, an entry like any other except that it exists from NewMulti on,
// is never retired, and is not a build (Keys, NumKeys and the
// MaxProgramKeys cap count builds only).
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

// Multi is a set of Stores keyed by (program, version). Safe for
// concurrent use.
type Multi struct {
	mu sync.RWMutex
	// subs holds every substore, the zero key's included.
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

// NewMulti returns a Multi holding the zero key's (empty) substore. The
// shards argument is accepted and ignored (a Store has none); it stays
// only because the frozen benchmark/fleet.go passes one, and ROADMAP
// item 5 (the benchmark PR) deletes it with DefaultShards.
func NewMulti(shards int) *Multi {
	return &Multi{
		subs:      map[api.ProgramKey]*Store{{}: New()},
		manifests: make(map[api.ProgramKey]*bytecode.Manifest),
		carried:   make(map[api.ProgramKey]*profile.DCG),
		latest:    make(map[string]string),
		touched:   make(map[api.ProgramKey]time.Time),
		now:       time.Now,
	}
}

// substore is one entry of a Multi, as the walks over all of them see it.
type substore struct {
	key   api.ProgramKey
	store *Store
}

// all lists every substore in canonical key order (api.SortedKeys: the
// zero key first, then builds). Never empty.
func (m *Multi) all() []substore {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]substore, 0, len(m.subs))
	for _, k := range api.SortedKeys(m.subs) {
		out = append(out, substore{k, m.subs[k]})
	}
	return out
}

// Stats sums every substore, so a fleet that stamps its pushes shows up
// in the daemon's figures. As cheap as Store.Stats (counters read under
// each substore's mutex, no graph copied). Epoch is the furthest any
// substore has decayed (DecayAll ages them together; a substore created
// later starts at 0), and Pushers counts sequence streams: a pusher ID
// that has pushed under two builds counts once per build.
func (m *Multi) Stats() Stats {
	all := m.all()
	st := all[0].store.Stats()
	for _, sub := range all[1:] {
		s := sub.store.Stats()
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
func (m *Multi) Lookup(key api.ProgramKey) *Store {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.subs[key]
}

// For returns the substore for key, creating it on first use. Returns
// nil when the key is malformed or the substore ledger is full.
func (m *Multi) For(key api.ProgramKey) *Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.forLocked(key)
}

func (m *Multi) forLocked(key api.ProgramKey) *Store {
	if s := m.subs[key]; s != nil {
		m.touched[key] = m.now()
		return s
	}
	// Only builds are ever created here (the zero key exists from
	// NewMulti on), so only builds are validated and capped.
	if !validKey(key) || m.buildsLocked() >= MaxProgramKeys {
		return nil
	}
	s := New()
	m.subs[key] = s
	m.touched[key] = m.now()
	if m.latest[key.Program] == "" {
		// First sighting of this program establishes succession; a
		// manifest registration for a newer build will advance it.
		m.latest[key.Program] = key.Version
	}
	return s
}

// buildsLocked counts the (program, version) substores: every entry but
// the zero key's.
func (m *Multi) buildsLocked() int { return len(m.subs) - 1 }

// Keys lists the live (program, version) builds in canonical order.
func (m *Multi) Keys() []api.ProgramKey {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return api.SortedKeys(m.subs)[1:] // the zero key sorts first
}

// NumKeys returns the number of live (program, version) builds.
func (m *Multi) NumKeys() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.buildsLocked()
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
		return 0, 0, fmt.Errorf("dcgstore: program ledger full (%d keys)", m.buildsLocked())
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

// Snapshots returns every substore's consistent snapshot by key — what
// a federation leaf forwards upstream, stream by stream.
func (m *Multi) Snapshots() map[api.ProgramKey]*profile.DCG {
	all := m.all()
	out := make(map[api.ProgramKey]*profile.DCG, len(all))
	for _, sub := range all {
		out[sub.key] = sub.store.Snapshot()
	}
	return out
}

// MergedSnapshot returns a consistent merge of every substore — the
// cross-version view the unparameterized /snapshot serves. The merge is
// commutative and the snapshot per substore is consistent;
// cross-substore skew is bounded by the call itself (substores are
// independent stores).
func (m *Multi) MergedSnapshot() *profile.DCG {
	all := m.all()
	g := all[0].store.Snapshot()
	for _, sub := range all[1:] {
		g.Merge(sub.store.Snapshot())
	}
	return g
}

// DecayAll runs one decay epoch on every substore, returning the total
// number of edges pruned.
func (m *Multi) DecayAll(factor, prune float64) int {
	pruned := 0
	for _, sub := range m.all() {
		pruned += sub.store.Decay(factor, prune)
	}
	return pruned
}

// EvictRetired removes substores for retired versions — any (program,
// version) that is no longer the program's latest version and has seen
// no write-path access (push or manifest registration) for at least
// ttl. The latest version of every program is always kept, however
// idle, as is a program's sole version (never superseded = not
// retired) and the zero key's substore. Eviction drops the substore,
// its manifest, and its carried-forward graph (and the next checkpoint
// drops their files); the version can still come back cold if a
// straggler pushes under it again, which is exactly the slot the cap
// in forLocked guards. Returns how many substores were evicted.
func (m *Multi) EvictRetired(ttl time.Duration) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	cutoff := m.now().Add(-ttl)
	n := 0
	for key := range m.subs {
		// The zero key is never retired either: no version is ever
		// latest for the empty program name, so it reads as "latest".
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
