package dcgstore

import (
	"cmp"
	"fmt"
	"slices"
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
	subs   map[api.ProgramKey]*substore
	latest map[string]string // program -> most recently registered version
	// events numbers substore creations and manifest registrations; see
	// substore.order.
	events  int
	evicted uint64
	now     func() time.Time
}

// substore is everything a Multi keeps for one key: EvictRetired drops
// one of these, a checkpoint writes one element for each.
type substore struct {
	key   api.ProgramKey
	store *Store
	// manifest is the registered manifest, nil until there is one, and
	// carried the graph carried forward into store at that registration,
	// nil when nothing was. Neither is written to after it is set.
	manifest *bytecode.Manifest
	carried  *profile.DCG
	// touched is the last write-path access (push-side For, manifest
	// registration); EvictRetired uses it to find versions the fleet has
	// moved off of. Read paths do not touch — the merged snapshot visits
	// every key and would pin retired versions forever.
	touched time.Time
	// order is Multi.events as of the substore's creation, and again as
	// of its manifest's registration. Sorting by it lists registered
	// builds in registration order — succession matters when manifests
	// are relayed upstream (a root registering v2 before v1 would get the
	// carry-forward direction wrong) — and is the order of a checkpoint's
	// elements, which is how it survives a restart. The zero key's is 0.
	order int
}

// NewMulti returns a Multi holding the zero key's (empty) substore. The
// shards argument is accepted and ignored (a Store has none); it stays
// only because the frozen benchmark/fleet.go passes one, and the next
// benchmark PR deletes it with DefaultShards.
func NewMulti(shards int) *Multi {
	return &Multi{
		subs:   map[api.ProgramKey]*substore{{}: {store: New()}},
		latest: make(map[string]string),
		now:    time.Now,
	}
}

// all lists every substore in canonical key order (api.SortedKeys: the
// zero key first, then builds). Never empty. Without the lock only key
// and store, which never change, may be read from an entry.
func (m *Multi) all() []*substore {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.allLocked()
}

func (m *Multi) allLocked() []*substore {
	out := make([]*substore, 0, len(m.subs))
	for _, k := range api.SortedKeys(m.subs) {
		out = append(out, m.subs[k])
	}
	return out
}

// byOrderLocked lists every substore by ascending order: the zero key,
// then builds as they were created or, once registered, registered.
func (m *Multi) byOrderLocked() []*substore {
	out := m.allLocked()
	slices.SortFunc(out, func(a, b *substore) int { return cmp.Compare(a.order, b.order) })
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

// get returns a copy of key's entry, all nil when there is none.
func (m *Multi) get(key api.ProgramKey) (sub substore) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if p := m.subs[key]; p != nil {
		sub = *p
	}
	return sub
}

// Lookup returns the substore for key, or nil if it does not exist.
func (m *Multi) Lookup(key api.ProgramKey) *Store { return m.get(key).store }

// For returns the substore for key, creating it on first use. Returns
// nil when the key is malformed or the substore ledger is full.
func (m *Multi) For(key api.ProgramKey) *Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	if sub := m.forLocked(key); sub != nil {
		return sub.store
	}
	return nil
}

func (m *Multi) forLocked(key api.ProgramKey) *substore {
	sub := m.subs[key]
	if sub == nil {
		// Only builds are ever created here (the zero key exists from
		// NewMulti on), so only builds are validated and capped.
		if !validKey(key) || m.buildsLocked() >= MaxProgramKeys {
			return nil
		}
		m.events++
		sub = &substore{key: key, store: New(), order: m.events}
		m.subs[key] = sub
		if m.latest[key.Program] == "" {
			// First sighting of this program establishes succession; a
			// manifest registration for a newer build will advance it.
			m.latest[key.Program] = key.Version
		}
	}
	sub.touched = m.now()
	return sub
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
func (m *Multi) Manifest(key api.ProgramKey) *bytecode.Manifest { return m.get(key).manifest }

// ManifestsInOrder returns the registered manifests in registration
// order — what a federation leaf relays upstream so the root registers
// builds in the same succession and its carry-forward runs the same
// direction. A restart keeps the order.
func (m *Multi) ManifestsInOrder() []*bytecode.Manifest {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []*bytecode.Manifest
	for _, sub := range m.byOrderLocked() {
		if sub.manifest != nil {
			out = append(out, sub.manifest)
		}
	}
	return out
}

// Carried returns a copy of the graph carried forward into key's
// substore when it was registered (nil when nothing was carried). The
// per-version conservation invariant is: substore snapshot == carried
// graph + the exact sum of acknowledged deltas.
func (m *Multi) Carried(key api.ProgramKey) *profile.DCG {
	if c := m.get(key).carried; c != nil {
		return c.Clone()
	}
	return nil
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
	sub := m.forLocked(key)
	if sub == nil {
		return 0, 0, fmt.Errorf("dcgstore: program ledger full (%d keys)", m.buildsLocked())
	}
	if sub.manifest == nil {
		prev := m.subs[api.ProgramKey{Program: man.Program, Version: m.latest[man.Program]}]
		if prev != nil && prev != sub && prev.manifest != nil {
			if c := CarryForward(prev.store.Snapshot(), prev.manifest, man); c.NumEdges() > 0 {
				sub.store.MergeDCG(c)
				sub.carried = c
			}
		}
		m.events++
		sub.manifest, sub.order = man, m.events
		m.latest[man.Program] = man.Version
	}
	if sub.carried != nil {
		return sub.carried.NumEdges(), sub.carried.Total(), nil
	}
	return 0, 0, nil
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
// its manifest, and its carried-forward graph (the next checkpoint has
// no element for it); the version can still come back cold if a
// straggler pushes under it again, which is exactly the slot the cap
// in forLocked guards. Returns how many substores were evicted.
func (m *Multi) EvictRetired(ttl time.Duration) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	cutoff := m.now().Add(-ttl)
	n := 0
	for key, sub := range m.subs {
		// The zero key is never retired either: no version is ever
		// latest for the empty program name, so it reads as "latest".
		if m.latest[key.Program] == key.Version || sub.touched.After(cutoff) {
			continue
		}
		delete(m.subs, key)
		n++
	}
	m.evicted += uint64(n)
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
// method and site IDs remapped to the new build's numbering, and old's
// window count: the edges kept are what those windows drew there. Edges
// touching any changed method are dropped — their shape may have
// changed, and a wrong edge is worse than a cold one.
func CarryForward(old *profile.DCG, oldM, newM *bytecode.Manifest) *profile.DCG {
	out := profile.NewDCG()
	if old == nil || oldM == nil || newM == nil {
		return out
	}
	out.SetWindows(old.Windows())
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
