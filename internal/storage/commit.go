package storage

import (
	"fmt"
	"slices"

	"contractstm/internal/crypto"
	"contractstm/internal/types"
)

// State commitment.
//
// The state root is defined over the canonical entry list (StateEntries):
// objects in name order, each contributing its entries in key order, every
// entry a leaf of crypto.StateLeaf, the leaves folded by crypto.MerkleReduce.
// StateRoot computes exactly that, incrementally. Each object caches the
// leaf node of every entry it holds, and its raw mutators — the one choke
// point eager undo, lazy overlay apply and OCC overlay apply all go
// through — record the keys they touch in a dirty set, under the raw
// mutex they already hold. A root pass re-encodes and re-hashes only the
// dirty keys, splices inserts and deletes into the cached arrays, and runs
// the interior pass over the concatenated leaves.
//
// Invariant: for every key not in the dirty set, the cache holds the leaf
// of the key's current raw binding (and holds no leaf for an unbound
// key). A cold object (no cache: new, or restored from encoded state)
// counts every key as dirty, so the first root is the same code path with
// nothing cached.
//
// A Snapshot carries each object's cache by reference plus a copy of its
// dirty set, and freezes the cache: a frozen cache is never written again,
// the next root pass copies what it changes. Restore puts back the raw
// contents together with the cache and dirty set that described them, so
// the invariant survives every rollback without a rebuild.

// StateRoot computes the commitment over every object's canonical
// contents. It must not be called while transactions are in flight.
func (s *Store) StateRoot() (types.Hash, error) {
	s.rootMu.Lock()
	defer s.rootMu.Unlock()
	s.mu.Lock()
	objs := s.sorted
	s.mu.Unlock()

	nodes := s.nodes[:0]
	for _, o := range objs {
		var err error
		nodes, err = o.appendLeaves(nodes, &s.hasher)
		if err != nil {
			return types.Hash{}, fmt.Errorf("state entries of %q: %w", o.objectName(), err)
		}
	}
	s.nodes = nodes
	return crypto.MerkleReduce(nodes), nil
}

// StateEntries lists the canonical (key, value) entries the state root
// commits to, in order: StateRoot equals crypto.StateRootOf of this list.
// It re-encodes the whole state on every call, so it is for tests and
// diagnostics, never a block path.
func (s *Store) StateEntries() ([]crypto.StateEntry, error) {
	s.mu.Lock()
	objs := s.sorted
	s.mu.Unlock()
	var entries []crypto.StateEntry
	for _, o := range objs {
		var err error
		entries, err = o.stateEntries(entries)
		if err != nil {
			return nil, fmt.Errorf("state entries of %q: %w", o.objectName(), err)
		}
	}
	return entries, nil
}

// leafHasher holds a root pass's entry-key and value encoding buffers.
type leafHasher struct {
	key, val []byte
}

// leaf returns the state-tree leaf of the entry whose key is in h.key and
// whose value is v.
func (h *leafHasher) leaf(v any) (types.Hash, error) {
	var err error
	if h.val, err = appendValue(h.val[:0], v); err != nil {
		return types.Hash{}, err
	}
	return crypto.StateLeaf(h.key, h.val), nil
}

// mapLeaf returns the leaf of map entry prefix‖key → v.
func (h *leafHasher) mapLeaf(prefix, key string, v any) (types.Hash, error) {
	h.key = append(append(h.key[:0], prefix...), key...)
	return h.leaf(v)
}

// mapCommit is a Map's commitment cache: its bound keys in canonical
// (sorted) order and the leaf of each. keys is never written after
// construction, so an update that changes only values may share it;
// leaves is written in place only while the cache is not frozen.
type mapCommit struct {
	keys   []string
	leaves []types.Hash
	frozen bool
}

// mapSnap is the commitment half of a Map snapshot.
type mapSnap struct {
	commit *mapCommit
	dirty  []string
}

// keyEdit is one dirty key's effect on a mapCommit.
type keyEdit struct {
	pos   int  // index of the key in the old keys, or its insertion point
	found bool // bound in the old cache
	live  bool // bound now
	leaf  types.Hash
}

// update returns the cache for the raw contents raw, given the old cache
// c and the sorted dirty keys. Every key outside dirty must still be
// described by c. c is modified only if it is not frozen and no key was
// inserted or deleted; otherwise the result is freshly allocated (sharing
// c.keys when the key set is unchanged).
func (c *mapCommit) update(prefix string, dirty []string, raw map[string]any, h *leafHasher) (*mapCommit, error) {
	edits := make([]keyEdit, len(dirty))
	size, reshaped := len(c.keys), false
	for i, k := range dirty {
		e := &edits[i]
		e.pos, e.found = slices.BinarySearch(c.keys, k)
		var v any
		v, e.live = raw[k]
		if e.live {
			leaf, err := h.mapLeaf(prefix, k, v)
			if err != nil {
				return nil, fmt.Errorf("key %q: %w", k, err)
			}
			e.leaf = leaf
		}
		switch {
		case e.live && !e.found:
			size++
			reshaped = true
		case !e.live && e.found:
			size--
			reshaped = true
		}
	}
	if !reshaped {
		next := c
		if c.frozen {
			next = &mapCommit{keys: c.keys, leaves: slices.Clone(c.leaves)}
		}
		for _, e := range edits {
			if e.live {
				next.leaves[e.pos] = e.leaf
			}
		}
		return next, nil
	}
	next := &mapCommit{keys: make([]string, 0, size), leaves: make([]types.Hash, 0, size)}
	i := 0
	for j, e := range edits {
		next.keys = append(next.keys, c.keys[i:e.pos]...)
		next.leaves = append(next.leaves, c.leaves[i:e.pos]...)
		i = e.pos
		if e.found {
			i++
		}
		if e.live {
			next.keys = append(next.keys, dirty[j])
			next.leaves = append(next.leaves, e.leaf)
		}
	}
	next.keys = append(next.keys, c.keys[i:]...)
	next.leaves = append(next.leaves, c.leaves[i:]...)
	return next, nil
}

// arrayCommit is an Array's commitment cache: the leaf of each element.
// leaves is written in place only while the cache is not frozen.
type arrayCommit struct {
	leaves []types.Hash
	frozen bool
}

// arraySnap is the commitment half of an Array snapshot.
type arraySnap struct {
	commit *arrayCommit
	dirty  []int
}

// cellSnap is the commitment half of a Cell snapshot.
type cellSnap struct {
	leaf  types.Hash
	dirty bool
}
