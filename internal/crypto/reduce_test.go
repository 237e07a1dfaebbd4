package crypto

import (
	"testing"

	"contractstm/internal/types"
)

// reduceSerial is the one-level-at-a-time interior pass, the reference
// the split pass must reproduce.
func reduceSerial(nodes []types.Hash) types.Hash {
	if len(nodes) == 0 {
		return emptyRoot()
	}
	for len(nodes) > 1 {
		nodes = reduceLevel(nodes)
	}
	return nodes[0]
}

// TestReduceSubtreesMatchesSerial: splitting the interior pass into
// aligned subtrees on any number of goroutines yields the serial root,
// for sizes around every power of two the chunking can land on.
func TestReduceSubtreesMatchesSerial(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 8, 9, 31, 64, 65, 100, 1023, 1024, 1025, parallelMin - 1, parallelMin, parallelMin + 1, 3*parallelMin + 7}
	for _, n := range sizes {
		want := reduceSerial(leaves(n))
		for _, p := range []int{2, 3, 4, 7} {
			if got := reduceSerial(reduceSubtrees(leaves(n), p)); got != want {
				t.Fatalf("n=%d p=%d: split root differs from serial root", n, p)
			}
		}
		if got := MerkleReduce(leaves(n)); got != want {
			t.Fatalf("n=%d: MerkleReduce differs from serial root", n)
		}
	}
}

// TestStateRootOfDefinition pins the state-entry leaf encoding: each entry
// is the digest H(0x00‖key‖0x01‖value), hashed again as a Merkle leaf.
func TestStateRootOfDefinition(t *testing.T) {
	entries := []StateEntry{
		{Key: []byte("a\x00k1"), Value: []byte{0x02, 0, 0, 0, 0, 0, 0, 0, 7}},
		{Key: []byte("a\x00k2"), Value: []byte{0x04, 'x'}},
		{Key: []byte("b"), Value: make([]byte, 300)}, // past StateLeaf's stack buffer
	}
	raw := make([]types.Hash, len(entries))
	for i, e := range entries {
		raw[i] = types.HashConcat([]byte{tagLeaf}, e.Key, []byte{tagNode}, e.Value)
	}
	if StateRootOf(entries) != MerkleRoot(raw) {
		t.Fatal("StateRootOf no longer matches its definition over MerkleRoot")
	}
	if StateRootOf(nil) != MerkleRoot(nil) {
		t.Fatal("empty state root differs from the empty Merkle root")
	}
}
