package persist

import (
	"fmt"
	"os"
	"path/filepath"

	"contractstm/internal/chain"
	"contractstm/internal/codec"
	"contractstm/internal/contract"
)

// Mempool persistence: a graceful shutdown saves the still-pending calls
// so a restarted node's pool picks up where it left off (submitted but
// unmined transactions must not evaporate across a restart). The file is
// consumed on recovery — loading deletes it — so a later crash can never
// resurrect calls that were already mined in between.

// poolFile is the mempool save file name inside a data directory: one
// frame holding a flat pool stream whose body is chain.AppendCallsWire.
const poolFile = "pool.bin"

// maxPoolBytes bounds the pool file read (a pool is bounded by client
// traffic, not block size; 256 MB is far beyond any sane backlog).
const maxPoolBytes = 256 << 20

// SavePool atomically writes the pending calls to the data directory.
// An empty slice removes any existing save (nothing pending).
func (l *Log) SavePool(calls []contract.Call) error {
	path := filepath.Join(l.dir, poolFile)
	if len(calls) == 0 {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("persist: clear pool: %w", err)
		}
		return nil
	}
	dst, start := codec.AppendHeader(nil, codec.KindPool)
	dst, err := chain.AppendCallsWire(dst, calls)
	if err != nil {
		return fmt.Errorf("persist: encode pool: %w", err)
	}
	codec.FinishHeader(dst, start)
	// Enforce the read-side cap at write time: a save TakePool could
	// never read back would brick every restart until the operator
	// deletes the file by hand. Refusing here loses only the pool, never
	// the chain.
	if len(dst) > maxPoolBytes {
		return fmt.Errorf("persist: pool encodes to %d bytes, max %d: refusing to save an unloadable file",
			len(dst), maxPoolBytes)
	}
	if err := writeFileAtomic(l.dir, poolFile, "pool-*.tmp", framed(dst)); err != nil {
		return fmt.Errorf("persist: pool: %w", err)
	}
	l.syncDir()
	return nil
}

// TakePool loads and consumes the saved mempool: the file is removed on
// a successful read so the calls are restored exactly once. A missing
// file returns (nil, nil); a damaged file is an error (clients' calls
// should not vanish silently).
func (l *Log) TakePool() ([]contract.Call, error) {
	path := filepath.Join(l.dir, poolFile)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: open pool: %w", err)
	}
	payload, err := readFrame(f, maxPoolBytes)
	_ = f.Close()
	if err != nil {
		return nil, fmt.Errorf("persist: read pool: %w", err)
	}
	calls, err := decodePool(payload)
	if err != nil {
		return nil, fmt.Errorf("persist: decode pool: %w", err)
	}
	if err := os.Remove(path); err != nil {
		return nil, fmt.Errorf("persist: consume pool: %w", err)
	}
	return calls, nil
}

func decodePool(payload []byte) ([]contract.Call, error) {
	body, err := codec.ParseHeader(payload, codec.KindPool)
	if err != nil {
		return nil, err
	}
	r := codec.NewReader(body)
	calls, err := chain.ReadCallsWire(r)
	if err != nil {
		return nil, err
	}
	return calls, r.Done()
}
