package storage

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"contractstm/internal/crypto"
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// Map is a boosted hash table: the translation of a Solidity mapping
// (§6: "Solidity mapping objects are implemented as boosted hashtables,
// where key values are used to index abstract locks").
//
// Concurrency: the abstract lock for key k is {Scope: name, Key: k}; the raw
// table is additionally guarded by a plain mutex because Go maps do not
// tolerate concurrent access even to distinct keys. The mutex is held only
// for the raw operation, never across a lock wait.
type Map struct {
	name  string
	id    uint64
	store *Store
	raw   rawMap
}

type rawMap struct {
	mu sync.Mutex
	m  map[string]any
	// commit caches the state-tree leaves as of the last StateRoot; nil
	// means cold, every key dirty. dirty holds the keys the raw mutators
	// touched since; it is nil exactly when commit is. See commit.go.
	commit *mapCommit
	dirty  map[string]struct{}
}

// touch records key as changed since the last root. Caller holds mu.
func (r *rawMap) touch(key string) {
	if r.dirty != nil {
		r.dirty[key] = struct{}{}
	}
}

// NewMap creates a boosted map registered in s under the given name (which
// becomes its lock scope and state-root prefix).
func NewMap(s *Store, name string) (*Map, error) {
	m := &Map{name: name, store: s, raw: rawMap{m: make(map[string]any)}}
	id, err := s.register(name, m)
	if err != nil {
		return nil, err
	}
	m.id = id
	return m, nil
}

// Name returns the map's lock scope.
func (m *Map) Name() string { return m.name }

func (m *Map) lock(key string) stm.LockID {
	if m.store.coarse() {
		return stm.LockID{Scope: m.name}
	}
	return stm.LockID{Scope: m.name, Key: key}
}

// Get returns the value bound to key, or (nil, false) when absent.
// A shared-mode storage operation.
func (m *Map) Get(ex stm.Executor, key string) (any, bool, error) {
	if err := ex.Access(m.lock(key), stm.ModeShared, ex.Schedule().MapRead); err != nil {
		return nil, false, err
	}
	if ov := ex.Overlay(); ov != nil {
		if v, deleted, ok := ov.Get(m.overlayKey(key)); ok {
			if n, isUint := v.(uint64); isUint && n == 0 {
				return nil, false, nil // canonical zero: see rawPut
			}
			return v, !deleted, nil
		}
		if d, buffered := ov.Delta(m.overlayKey(key)); buffered {
			// Read-your-increments: a buffered delta is visible to the
			// buffering transaction as raw value plus delta. Deltas are
			// only buffered against verified uint64 counters.
			base, _ := m.rawGet(key)
			n, _ := base.(uint64)
			n = uint64(int64(n) + d)
			if n == 0 {
				return nil, false, nil // canonical zero
			}
			return n, true, nil
		}
	}
	v, ok := m.rawGet(key)
	return v, ok, nil
}

// Contains reports whether key is bound. A shared-mode storage operation.
func (m *Map) Contains(ex stm.Executor, key string) (bool, error) {
	_, ok, err := m.Get(ex, key)
	return ok, err
}

// Put binds key to val. An exclusive-mode storage operation whose inverse
// restores the prior binding (or absence).
func (m *Map) Put(ex stm.Executor, key string, val any) error {
	if err := ex.Access(m.lock(key), stm.ModeExclusive, ex.Schedule().MapWrite); err != nil {
		return err
	}
	if ov := ex.Overlay(); ov != nil {
		ov.Put(m.overlayKey(key), val, false, func(v any, deleted bool) {
			m.applyOverlay(key, v, deleted)
		})
		return nil
	}
	prev, had := m.rawGet(key)
	ex.LogUndo(func() {
		if had {
			m.rawPut(key, prev)
		} else {
			m.rawDelete(key)
		}
	})
	m.rawPut(key, val)
	return nil
}

// Delete removes key's binding. An exclusive-mode storage operation whose
// inverse re-adds the binding.
func (m *Map) Delete(ex stm.Executor, key string) error {
	if err := ex.Access(m.lock(key), stm.ModeExclusive, ex.Schedule().MapDelete); err != nil {
		return err
	}
	if ov := ex.Overlay(); ov != nil {
		ov.Put(m.overlayKey(key), nil, true, func(v any, deleted bool) {
			m.applyOverlay(key, v, deleted)
		})
		return nil
	}
	prev, had := m.rawGet(key)
	if !had {
		return nil
	}
	ex.LogUndo(func() { m.rawPut(key, prev) })
	m.rawDelete(key)
	return nil
}

// AddUint adds delta to the uint64 counter bound to key (missing keys count
// as zero). An increment-mode operation: concurrent AddUints on the same
// key commute, which is what keeps Ballot's vote tallies parallel. The
// inverse subtracts delta.
func (m *Map) AddUint(ex stm.Executor, key string, delta uint64) error {
	if err := ex.Access(m.lock(key), m.addMode(), ex.Schedule().MapWrite); err != nil {
		return err
	}
	// Buffered regimes (lazy and OCC) record the increment as a delta
	// entry, not an absolute value: deltas from different transactions
	// accumulate at apply time, so commutativity survives buffering — and
	// an increment never clobbers (or is clobbered by) a buffered write
	// to the same slot, because delta-after-Put folds into the buffered
	// value.
	if ov := ex.Overlay(); ov != nil {
		if _, err := m.effectiveUint(ov, key); err != nil {
			return err
		}
		ov.Add(m.overlayKey(key), int64(delta), func(d int64) { m.rawAdd(key, d) })
		return nil
	}
	if cur, had := m.rawGet(key); had {
		if _, ok := cur.(uint64); !ok {
			return fmt.Errorf("%w: %s[%q] holds %T", ErrNotCounter, m.name, key, cur)
		}
	}
	// Plain subtraction is a correct inverse in any interleaving of
	// commuting adds because the raw layer canonicalizes zero counters to
	// absent bindings (EVM storage semantics); see rawAdd/rawPut.
	ex.LogUndo(func() { m.rawAdd(key, -int64(delta)) })
	m.rawAdd(key, int64(delta))
	return nil
}

// addMode returns the lock mode for AddUint: increment normally, but
// exclusive under either ablation (no-increment or coarse region locks,
// which cannot see commutativity).
func (m *Map) addMode() stm.Mode {
	if m.store.coarse() {
		return stm.ModeExclusive
	}
	return m.store.incrementMode()
}

// SubUint subtracts delta from the uint64 counter bound to key, failing
// with ErrUnderflow if the counter is smaller than delta. Unlike AddUint
// this is NOT commutative (it observes the current value), so it takes the
// lock exclusively. The inverse adds delta back.
func (m *Map) SubUint(ex stm.Executor, key string, delta uint64) error {
	if err := ex.Access(m.lock(key), stm.ModeExclusive, ex.Schedule().MapWrite); err != nil {
		return err
	}
	if ov := ex.Overlay(); ov != nil {
		base, err := m.effectiveUint(ov, key)
		if err != nil {
			return err
		}
		if base < delta {
			return fmt.Errorf("%s[%q]: %d - %d: %w", m.name, key, base, delta, ErrUnderflow)
		}
		ov.Add(m.overlayKey(key), -int64(delta), func(d int64) { m.rawAdd(key, d) })
		return nil
	}
	cur, had := m.rawGet(key)
	var base uint64
	if had {
		b, ok := cur.(uint64)
		if !ok {
			return fmt.Errorf("%w: %s[%q] holds %T", ErrNotCounter, m.name, key, cur)
		}
		base = b
	}
	if base < delta {
		return fmt.Errorf("%s[%q]: %d - %d: %w", m.name, key, base, delta, ErrUnderflow)
	}
	ex.LogUndo(func() { m.rawAdd(key, int64(delta)) })
	m.rawAdd(key, -int64(delta))
	return nil
}

// effectiveUint reads the counter at key as seen through an overlay: a
// buffered absolute value, raw plus a buffered delta, or raw (absent
// counts as zero). It fails with ErrNotCounter on non-uint64 slots.
func (m *Map) effectiveUint(ov *stm.Overlay, key string) (uint64, error) {
	if v, deleted, ok := ov.Get(m.overlayKey(key)); ok {
		if deleted {
			return 0, nil
		}
		n, isUint := v.(uint64)
		if !isUint {
			return 0, fmt.Errorf("%w: %s[%q] holds %T", ErrNotCounter, m.name, key, v)
		}
		return n, nil
	}
	var base uint64
	if cur, had := m.rawGet(key); had {
		n, isUint := cur.(uint64)
		if !isUint {
			return 0, fmt.Errorf("%w: %s[%q] holds %T", ErrNotCounter, m.name, key, cur)
		}
		base = n
	}
	d, _ := ov.Delta(m.overlayKey(key))
	return uint64(int64(base) + d), nil
}

// GetUint reads the counter at key (0 when absent). Shared mode.
func (m *Map) GetUint(ex stm.Executor, key string) (uint64, error) {
	v, ok, err := m.Get(ex, key)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	n, isUint := v.(uint64)
	if !isUint {
		return 0, fmt.Errorf("%w: %s[%q] holds %T", ErrNotCounter, m.name, key, v)
	}
	return n, nil
}

func (m *Map) overlayKey(key string) stm.OverlayKey {
	return stm.OverlayKey{Obj: m.id, Key: key}
}

func (m *Map) applyOverlay(key string, v any, deleted bool) {
	if deleted {
		m.rawDelete(key)
		return
	}
	m.rawPut(key, v)
}

// raw accessors, each a short critical section on the raw mutex.

func (m *Map) rawGet(key string) (any, bool) {
	m.raw.mu.Lock()
	defer m.raw.mu.Unlock()
	v, ok := m.raw.m[key]
	return v, ok
}

// rawPut stores a binding. Like EVM storage, writing the zero counter
// clears the slot: uint64(0) and "absent" are one canonical state, which is
// what makes subtraction a correct inverse for commutative adds in every
// abort interleaving.
func (m *Map) rawPut(key string, v any) {
	m.raw.mu.Lock()
	defer m.raw.mu.Unlock()
	m.raw.touch(key)
	if n, isUint := v.(uint64); isUint && n == 0 {
		delete(m.raw.m, key)
		return
	}
	m.raw.m[key] = v
}

func (m *Map) rawDelete(key string) {
	m.raw.mu.Lock()
	defer m.raw.mu.Unlock()
	m.raw.touch(key)
	delete(m.raw.m, key)
}

func (m *Map) rawAdd(key string, delta int64) {
	m.raw.mu.Lock()
	defer m.raw.mu.Unlock()
	m.raw.touch(key)
	var cur uint64
	if v, ok := m.raw.m[key]; ok {
		cur, _ = v.(uint64)
	}
	next := uint64(int64(cur) + delta)
	if next == 0 {
		delete(m.raw.m, key) // canonical zero: see rawPut
		return
	}
	m.raw.m[key] = next
}

// Len returns the raw size (diagnostics/tests only; not transactional).
func (m *Map) Len() int {
	m.raw.mu.Lock()
	defer m.raw.mu.Unlock()
	return len(m.raw.m)
}

// objectName implements object.
func (m *Map) objectName() string { return m.name }

// stateEntries implements object.
func (m *Map) stateEntries(dst []crypto.StateEntry) ([]crypto.StateEntry, error) {
	m.raw.mu.Lock()
	defer m.raw.mu.Unlock()
	for _, k := range sortedKeys(m.raw.m) {
		enc, err := encodeValue(m.raw.m[k])
		if err != nil {
			return nil, fmt.Errorf("key %q: %w", k, err)
		}
		dst = append(dst, crypto.StateEntry{Key: []byte(m.name + "\x00" + k), Value: enc})
	}
	return dst, nil
}

// appendLeaves implements object: it brings the commitment cache up to
// date with the dirty keys (every key when cold) and appends its leaves.
func (m *Map) appendLeaves(dst []types.Hash, h *leafHasher) ([]types.Hash, error) {
	m.raw.mu.Lock()
	defer m.raw.mu.Unlock()
	c, dirty := m.raw.commit, sortedKeys(m.raw.dirty)
	if c == nil {
		c, dirty = &mapCommit{}, sortedKeys(m.raw.m)
	}
	next, err := c.update(m.name+"\x00", dirty, m.raw.m, h)
	if err != nil {
		return nil, err
	}
	m.raw.commit = next
	if m.raw.dirty == nil {
		m.raw.dirty = make(map[string]struct{})
	} else {
		clear(m.raw.dirty)
	}
	return append(dst, next.leaves...), nil
}

// snapshot implements object. It freezes the commitment cache it hands
// out.
func (m *Map) snapshot() (any, any) {
	m.raw.mu.Lock()
	defer m.raw.mu.Unlock()
	cp := make(map[string]any, len(m.raw.m))
	for k, v := range m.raw.m {
		cp[k] = v
	}
	if m.raw.commit == nil {
		return cp, nil
	}
	m.raw.commit.frozen = true
	return cp, mapSnap{commit: m.raw.commit, dirty: sortedKeys(m.raw.dirty)}
}

// restore implements object. A nil commit (decoded state) restores cold.
func (m *Map) restore(content, commit any) {
	src := content.(map[string]any)
	m.raw.mu.Lock()
	defer m.raw.mu.Unlock()
	m.raw.m = make(map[string]any, len(src))
	for k, v := range src {
		m.raw.m[k] = v
	}
	m.raw.commit, m.raw.dirty = nil, nil
	if cs, warm := commit.(mapSnap); warm {
		m.raw.commit = cs.commit
		m.raw.dirty = make(map[string]struct{}, len(cs.dirty))
		for _, k := range cs.dirty {
			m.raw.dirty[k] = struct{}{}
		}
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// itoa is a tiny helper shared with Array for index keys in diagnostics.
func itoa(i int) string { return strconv.Itoa(i) }
