package contracts

import (
	"fmt"

	"contractstm/internal/contract"
	"contractstm/internal/storage"
	"contractstm/internal/types"
)

// DocMeta is EtherDoc's per-document record.
type DocMeta struct {
	// Owner is the current document owner.
	Owner types.Address
	// Exists distinguishes registered documents (mapping values default to
	// the zero record in Solidity).
	Exists bool
}

// EncodeValue implements storage.Encoder.
func (d DocMeta) EncodeValue() []byte {
	out := make([]byte, 0, types.AddressLen+1)
	out = append(out, d.Owner[:]...)
	if d.Exists {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	return out
}

// decodeDocMeta inverts DocMeta.EncodeValue (registered with storage in
// setup.go).
func decodeDocMeta(b []byte) (DocMeta, error) {
	if len(b) != types.AddressLen+1 {
		return DocMeta{}, fmt.Errorf("document record is %d bytes", len(b))
	}
	return DocMeta{Owner: types.Address(b[:types.AddressLen]), Exists: b[types.AddressLen] == 1}, nil
}

// EtherDoc is the "proof of existence" DAPP from the paper's third
// benchmark: it tracks per-document metadata (hashcode → owner) and
// supports creation, existence checks and ownership transfer.
type EtherDoc struct {
	addr types.Address
	// docs maps document hashcodes to metadata; distinct documents use
	// distinct abstract locks.
	docs *storage.Map
	// ownerDocCount maps owners to how many documents they hold. Its
	// updates are deliberately translated as read-modify-write (Get+Put,
	// exclusive) rather than boosted increments — see the package comment:
	// this reproduces the contention the paper observes when every
	// transfer targets the same new owner.
	ownerDocCount *storage.Map
	// totalDocs counts registered documents.
	totalDocs *storage.Cell
}

var _ contract.Contract = (*EtherDoc)(nil)

// NewEtherDoc deploys an empty document registry.
func NewEtherDoc(w *contract.World, addr types.Address) (*EtherDoc, error) {
	store := w.Store()
	prefix := "etherdoc:" + addr.Short()
	docs, err := storage.NewMap(store, prefix+"/docs")
	if err != nil {
		return nil, err
	}
	counts, err := storage.NewMap(store, prefix+"/ownerDocCount")
	if err != nil {
		return nil, err
	}
	total, err := storage.NewCell(store, prefix+"/totalDocs", uint64(0))
	if err != nil {
		return nil, err
	}
	e := &EtherDoc{addr: addr, docs: docs, ownerDocCount: counts, totalDocs: total}
	if err := w.Deploy(e); err != nil {
		return nil, err
	}
	return e, nil
}

// ContractAddress implements contract.Contract.
func (e *EtherDoc) ContractAddress() types.Address { return e.addr }

// Invoke implements contract.Contract.
func (e *EtherDoc) Invoke(env *contract.Env, fn string, args []any) any {
	switch fn {
	case "createDocument":
		e.createDocument(env, mustHash(env, args, 0))
		return nil
	case "documentExists":
		return e.documentExists(env, mustHash(env, args, 0))
	case "getOwner":
		return e.getOwner(env, mustHash(env, args, 0))
	case "transferOwnership":
		e.transferOwnership(env, mustHash(env, args, 0), mustAddr(env, args, 1))
		return nil
	case "countForOwner":
		n, err := e.ownerDocCount.GetUint(env.Ex(), storage.KeyAddr(mustAddr(env, args, 0)))
		env.Do(err)
		return n
	default:
		env.Throw("etherdoc: unknown function %q", fn)
		return nil
	}
}

// createDocument registers a new document owned by the sender.
func (e *EtherDoc) createDocument(env *contract.Env, hash types.Hash) {
	env.UseGas(70)
	if e.loadDoc(env, hash).Exists {
		env.Throw("createDocument: document already exists")
	}
	sender := env.Msg().Sender
	env.Do(e.docs.Put(env.Ex(), storage.KeyHash(hash), DocMeta{Owner: sender, Exists: true}))
	e.bumpOwnerCount(env, sender, 1)
	env.Do(e.totalDocs.AddUint(env.Ex(), 1))
}

// documentExists checks a document by hashcode — the paper's base
// workload: "transactions consist of owners checking the existence of the
// document by hashcode".
func (e *EtherDoc) documentExists(env *contract.Env, hash types.Hash) bool {
	env.UseGas(40)
	return e.loadDoc(env, hash).Exists
}

// getOwner returns the document's owner.
func (e *EtherDoc) getOwner(env *contract.Env, hash types.Hash) types.Address {
	env.UseGas(30)
	doc := e.loadDoc(env, hash)
	if !doc.Exists {
		env.Throw("getOwner: no such document")
	}
	return doc.Owner
}

// transferOwnership moves a document to a new owner — the paper's
// conflict workload ("transactions that transfer ownership to the contract
// creator": every contending transfer read-modify-writes the same
// ownerDocCount entry).
func (e *EtherDoc) transferOwnership(env *contract.Env, hash types.Hash, newOwner types.Address) {
	env.UseGas(60)
	doc := e.loadDoc(env, hash)
	if !doc.Exists {
		env.Throw("transferOwnership: no such document")
	}
	if doc.Owner != env.Msg().Sender {
		env.Throw("transferOwnership: sender is not the owner")
	}
	if doc.Owner == newOwner {
		return
	}
	e.bumpOwnerCount(env, doc.Owner, -1)
	e.bumpOwnerCount(env, newOwner, 1)
	doc.Owner = newOwner
	env.Do(e.docs.Put(env.Ex(), storage.KeyHash(hash), doc))
}

// bumpOwnerCount adjusts an owner's document count via Get+Put: an
// exclusive read-modify-write by design (see the field comment).
func (e *EtherDoc) bumpOwnerCount(env *contract.Env, owner types.Address, delta int64) {
	cur, err := e.ownerDocCount.GetUint(env.Ex(), storage.KeyAddr(owner))
	env.Do(err)
	next := uint64(int64(cur) + delta)
	if delta < 0 && cur == 0 {
		env.Throw("etherdoc: owner count underflow for %s", owner.Short())
	}
	env.Do(e.ownerDocCount.Put(env.Ex(), storage.KeyAddr(owner), next))
}

func (e *EtherDoc) loadDoc(env *contract.Env, hash types.Hash) DocMeta {
	v, ok, err := e.docs.Get(env.Ex(), storage.KeyHash(hash))
	env.Do(err)
	if !ok {
		return DocMeta{}
	}
	doc, isDoc := v.(DocMeta)
	if !isDoc {
		env.Throw("etherdoc: corrupt document record")
	}
	return doc
}

// SeedDocument registers a document at genesis (benchmark fixture: "the
// contract is initialized with a number of documents and owners").
func (e *EtherDoc) SeedDocument(w *contract.World, hash types.Hash, owner types.Address) error {
	return initRaw(w, func(ex *setupExec) error {
		if err := e.docs.Put(ex, storage.KeyHash(hash), DocMeta{Owner: owner, Exists: true}); err != nil {
			return err
		}
		cur, err := e.ownerDocCount.GetUint(ex, storage.KeyAddr(owner))
		if err != nil {
			return err
		}
		if err := e.ownerDocCount.Put(ex, storage.KeyAddr(owner), cur+1); err != nil {
			return err
		}
		return e.totalDocs.AddUint(ex, 1)
	})
}
