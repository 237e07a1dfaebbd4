// Package crypto provides the hashing substrate for the blockchain layer:
// domain-separated digests and a binary Merkle tree used to commit to
// transaction lists and contract state.
//
// The paper's validator rejects a block when "the schedule produces a final
// state different from the one recorded in the block"; state commitments are
// what make that check O(1) to express and tamper-evident.
package crypto

import (
	"crypto/sha256"
	"runtime"
	"sync"

	"contractstm/internal/types"
)

// Domain-separation tags. Hashing a leaf and an interior node with different
// prefixes defeats second-preimage attacks that graft subtrees as leaves.
const (
	tagLeaf  byte = 0x00
	tagNode  byte = 0x01
	tagEmpty byte = 0x02
)

// emptyRoot is the Merkle root of an empty leaf list.
func emptyRoot() types.Hash {
	return sha256.Sum256([]byte{tagEmpty})
}

// MerkleRoot computes the root of a binary Merkle tree over the given leaves.
// Odd nodes at each level are promoted unpaired (Bitcoin-style duplication is
// deliberately avoided: duplication admits known malleability).
func MerkleRoot(leaves []types.Hash) types.Hash {
	nodes := make([]types.Hash, len(leaves))
	for i, leaf := range leaves {
		nodes[i] = hashLeaf(leaf)
	}
	return MerkleReduce(nodes)
}

// MerkleReduce is the interior pass shared by every root in the repo
// (transactions, receipts, state): it folds a level of already
// domain-separated leaf nodes up to the root, in place. nodes is
// overwritten; callers pass a scratch slice. An empty level has the
// empty root.
//
// Large levels are split across GOMAXPROCS goroutines. The split never
// changes the root: see reduceSubtrees.
func MerkleReduce(nodes []types.Hash) types.Hash {
	if len(nodes) == 0 {
		return emptyRoot()
	}
	if p := runtime.GOMAXPROCS(0); p > 1 && len(nodes) >= parallelMin {
		nodes = reduceSubtrees(nodes, p)
	}
	for len(nodes) > 1 {
		nodes = reduceLevel(nodes)
	}
	return nodes[0]
}

// parallelMin is the level size from which MerkleReduce splits the
// interior pass across cores; below it the hand-off costs more than the
// hashing it spreads.
const parallelMin = 1 << 12

// reduceSubtrees replaces nodes with the roots of its aligned subtrees,
// computed by p goroutines, and returns them. Because odd nodes are
// promoted rather than paired across, the node at level k, index j covers
// exactly leaves [j·2^k, (j+1)·2^k): an aligned chunk of 2^k leaves folds
// independently to the node the serial pass computes at level k, and the
// caller's serial pass finishes the levels above. About four chunks per
// goroutine keep the shorter last chunk from idling a core.
func reduceSubtrees(nodes []types.Hash, p int) []types.Hash {
	chunk := 1
	for chunk*4*p < len(nodes) {
		chunk <<= 1
	}
	roots := make([]types.Hash, (len(nodes)+chunk-1)/chunk)
	var wg sync.WaitGroup
	for w := 0; w < p && w < len(roots); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := w; c < len(roots); c += p {
				level := nodes[c*chunk : min((c+1)*chunk, len(nodes))]
				for len(level) > 1 {
					level = reduceLevel(level)
				}
				roots[c] = level[0]
			}
		}(w)
	}
	wg.Wait()
	return append(nodes[:0], roots...)
}

// reduceLevel replaces one tree level with its parent level in the same
// backing array and returns the parent level. Writes never overtake
// reads: parent i is written after children 2i and 2i+1 were read.
func reduceLevel(level []types.Hash) []types.Hash {
	n := 0
	for i := 0; i < len(level); i += 2 {
		if i+1 < len(level) {
			level[n] = hashNode(level[i], level[i+1])
		} else {
			level[n] = level[i]
		}
		n++
	}
	return level[:n]
}

func hashLeaf(h types.Hash) types.Hash {
	var buf [1 + types.HashLen]byte
	buf[0] = tagLeaf
	copy(buf[1:], h[:])
	return sha256.Sum256(buf[:])
}

func hashNode(l, r types.Hash) types.Hash {
	var buf [1 + 2*types.HashLen]byte
	buf[0] = tagNode
	copy(buf[1:], l[:])
	copy(buf[1+types.HashLen:], r[:])
	return sha256.Sum256(buf[:])
}

// Proof is a Merkle inclusion proof for a single leaf.
type Proof struct {
	// Index is the 0-based position of the proven leaf.
	Index int
	// Path lists sibling hashes from the leaf level up to the root.
	Path []types.Hash
	// Right[i] reports whether Path[i] is the right sibling at level i.
	Right []bool
}

// MerkleProve builds an inclusion proof for leaves[index].
// It returns false when index is out of range.
func MerkleProve(leaves []types.Hash, index int) (Proof, bool) {
	if index < 0 || index >= len(leaves) {
		return Proof{}, false
	}
	proof := Proof{Index: index}
	level := make([]types.Hash, len(leaves))
	for i, leaf := range leaves {
		level[i] = hashLeaf(leaf)
	}
	pos := index
	for len(level) > 1 {
		sib := pos ^ 1
		if sib < len(level) {
			proof.Path = append(proof.Path, level[sib])
			proof.Right = append(proof.Right, sib > pos)
		}
		level = reduceLevel(level)
		pos /= 2
	}
	return proof, true
}

// MerkleVerify checks that leaf is included under root according to proof.
func MerkleVerify(root types.Hash, leaf types.Hash, proof Proof) bool {
	cur := hashLeaf(leaf)
	for i, sib := range proof.Path {
		if proof.Right[i] {
			cur = hashNode(cur, sib)
		} else {
			cur = hashNode(sib, cur)
		}
	}
	return cur == root
}

// StateRoot commits to a set of key/value pairs. Callers pass pre-sorted,
// canonical entries; each entry is hashed as a leaf of H(key)||H(value).
type StateEntry struct {
	Key   []byte
	Value []byte
}

// StateLeaf returns the leaf-level Merkle node of one state entry: the
// domain-separated entry digest H(tagLeaf‖key‖tagNode‖value), hashed again
// as a tree leaf. Caching these per entry lets a state commitment re-hash
// only the entries that changed and hand the rest to MerkleReduce as is.
func StateLeaf(key, value []byte) types.Hash {
	var stack [128]byte
	buf := append(stack[:0], tagLeaf)
	buf = append(buf, key...)
	buf = append(buf, tagNode)
	buf = append(buf, value...)
	return hashLeaf(sha256.Sum256(buf))
}

// StateRootOf computes a deterministic commitment over canonical entries.
// Entries MUST already be sorted by key; this package does not sort so that
// the storage layer controls canonical ordering (and its cost) itself.
func StateRootOf(entries []StateEntry) types.Hash {
	nodes := make([]types.Hash, len(entries))
	for i, e := range entries {
		nodes[i] = StateLeaf(e.Key, e.Value)
	}
	return MerkleReduce(nodes)
}
