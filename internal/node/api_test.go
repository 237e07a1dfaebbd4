package node

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"contractstm/internal/api/client"
	"contractstm/internal/api/wire"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/gas"
	"contractstm/internal/persist"
	"contractstm/internal/runtime"
	"contractstm/internal/stm"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

// sdkFor serves n over httptest and returns a /v1 SDK client for it.
func sdkFor(t *testing.T, n *Node) *client.Client {
	t.Helper()
	return client.New(httpNode(t, n))
}

func transferTx(from, to types.Address, amount uint64) wire.TxSubmit {
	toArg, _ := wire.EncodeArg(to)
	amtArg, _ := wire.EncodeArg(amount)
	return wire.TxSubmit{
		Sender: from.String(), Contract: tokenAddr.String(), Function: "transfer",
		Args: []wire.Arg{toArg, amtArg}, GasLimit: 100_000,
	}
}

// TestV1ErrorPaths drives every /v1 route's failure modes and checks the
// HTTP status and the stable machine-readable error code of each.
func TestV1ErrorPaths(t *testing.T) {
	w, holders := newTokenWorld(t, 2)
	n, err := New(Config{
		World: w, Workers: 2, Runner: runtime.NewSimRunner(),
		MaxGasLimit: 500_000, MaxBodyBytes: 2048,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	url := httpNode(t, n)

	okTx, _ := json.Marshal(transferTx(holders[0], holders[1], 1))
	bigTx := append(bytes.Repeat([]byte(" "), 4096), okTx...)
	overGas := transferTx(holders[0], holders[1], 1)
	overGas.GasLimit = 1_000_000
	overGasBody, _ := json.Marshal(overGas)
	badSender, _ := json.Marshal(wire.TxSubmit{Sender: "junk", Contract: tokenAddr.String(), Function: "f"})
	badArg, _ := json.Marshal(wire.TxSubmit{Sender: holders[0].String(), Contract: tokenAddr.String(),
		Function: "f", Args: []wire.Arg{{Type: "uint64", Value: "abc"}}})
	noFn, _ := json.Marshal(wire.TxSubmit{Sender: holders[0].String(), Contract: tokenAddr.String()})

	cases := []struct {
		name        string
		method      string
		path        string
		contentType string
		body        []byte
		status      int
		code        string
	}{
		{"tx bad sender", "POST", "/v1/tx", "application/json", badSender, http.StatusBadRequest, wire.CodeBadAddress},
		{"tx bad arg", "POST", "/v1/tx", "application/json", badArg, http.StatusBadRequest, wire.CodeBadArg},
		{"tx missing function", "POST", "/v1/tx", "application/json", noFn, http.StatusBadRequest, wire.CodeMissingFunction},
		{"tx malformed json", "POST", "/v1/tx", "application/json", []byte("{"), http.StatusBadRequest, wire.CodeBadRequest},
		{"tx wrong content type", "POST", "/v1/tx", "text/plain", okTx, http.StatusUnsupportedMediaType, wire.CodeUnsupportedMedia},
		{"tx oversized body", "POST", "/v1/tx", "application/json", bigTx, http.StatusRequestEntityTooLarge, wire.CodeBodyTooLarge},
		{"tx gas over max", "POST", "/v1/tx", "application/json", overGasBody, http.StatusBadRequest, wire.CodeGasLimitTooHigh},
		{"receipt bad id", "GET", "/v1/tx/zzzz", "", nil, http.StatusBadRequest, wire.CodeBadRequest},
		{"receipt unknown id", "GET", "/v1/tx/" + types.HashString("ghost").String(), "", nil, http.StatusNotFound, wire.CodeTxNotFound},
		{"mine empty pool", "POST", "/v1/mine", "application/json", []byte(`{"blockSize":5}`), http.StatusConflict, wire.CodeMineFailed},
		{"mine wrong content type", "POST", "/v1/mine", "application/gob", []byte("x"), http.StatusUnsupportedMediaType, wire.CodeUnsupportedMedia},
		{"block bad height", "GET", "/v1/blocks/notanumber", "", nil, http.StatusBadRequest, wire.CodeBadRequest},
		{"block unknown height", "GET", "/v1/blocks/99", "", nil, http.StatusNotFound, wire.CodeBlockNotFound},
		{"import junk block", "POST", "/v1/blocks", "application/octet-stream", []byte("junk"), http.StatusBadRequest, wire.CodeBadRequest},
		{"state bad address", "GET", "/v1/state/xx", "", nil, http.StatusBadRequest, wire.CodeBadAddress},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, url+tc.path, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatalf("request: %v", err)
			}
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("do: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.status, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("error Content-Type = %q", ct)
			}
			var envelope wire.Error
			if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
				t.Fatalf("error decode: %v", err)
			}
			if envelope.Code != tc.code {
				t.Fatalf("code = %q, want %q (msg %q)", envelope.Code, tc.code, envelope.Message)
			}
			if envelope.Message == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

// TestV1ReceiptFlow is the end-to-end acceptance path on every engine at
// pipeline depths 1 and 4: submit over the SDK, observe pending, mine,
// and read a committed receipt with gas usage and block coordinates —
// plus an aborted receipt for a transfer that must revert.
func TestV1ReceiptFlow(t *testing.T) {
	for _, ek := range engine.Kinds() {
		for _, depth := range []int{1, 4} {
			t.Run(ek.String()+"/depth"+string(rune('0'+depth)), func(t *testing.T) {
				w, holders := newTokenWorld(t, 4)
				n, err := New(Config{
					World: w, Workers: 3, Runner: runtime.NewSimRunner(), Engine: ek,
					DataDir: t.TempDir(), Persist: persist.Options{SnapshotEvery: -1},
					PipelineDepth: depth,
				})
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				defer n.Close()
				sdk := sdkFor(t, n)
				ctx := context.Background()

				ok, err := sdk.SubmitTx(ctx, transferTx(holders[0], holders[1], 25))
				if err != nil {
					t.Fatalf("submit: %v", err)
				}
				// Insufficient funds: holders hold 1000, this must abort.
				bad, err := sdk.SubmitTx(ctx, transferTx(holders[2], holders[3], 5000))
				if err != nil {
					t.Fatalf("submit aborting tx: %v", err)
				}
				for _, id := range []string{ok.ID, bad.ID} {
					rec, err := sdk.Receipt(ctx, id)
					if err != nil {
						t.Fatalf("pending receipt: %v", err)
					}
					if rec.Status != wire.StatusPending {
						t.Fatalf("pre-mine status = %q", rec.Status)
					}
				}

				if _, err := n.MineOne(10); err != nil {
					t.Fatalf("mine: %v", err)
				}
				if err := n.Flush(); err != nil {
					t.Fatalf("flush: %v", err)
				}

				rec, err := sdk.WaitReceipt(ctx, ok.ID, time.Millisecond)
				if err != nil {
					t.Fatalf("receipt: %v", err)
				}
				if rec.Status != wire.StatusCommitted || rec.GasUsed == 0 || rec.BlockHeight != 1 {
					t.Fatalf("committed receipt = %+v", rec)
				}
				abortRec, err := sdk.WaitReceipt(ctx, bad.ID, time.Millisecond)
				if err != nil {
					t.Fatalf("abort receipt: %v", err)
				}
				if abortRec.Status != wire.StatusAborted || abortRec.GasUsed == 0 || abortRec.AbortReason == "" {
					t.Fatalf("aborted receipt = %+v", abortRec)
				}
				// The state-read route works against the same node (token
				// holdings live in contract storage, not the currency
				// ledger, so the world balance is simply zero here;
				// TestV1Balance covers a funded account).
				if _, err := sdk.Balance(ctx, holders[1]); err != nil {
					t.Fatalf("balance: %v", err)
				}
			})
		}
	}
}

// TestV1BlockRange drives the range-fetch endpoint end to end: full
// windows decode in height order, requests past the durable head come
// back short (never empty), a missing starting height answers 404
// block_not_found, and malformed parameters answer 400.
func TestV1BlockRange(t *testing.T) {
	const blocks = 5
	w, holders := newTokenWorld(t, 2)
	n, err := New(Config{World: w, Workers: 2, Runner: runtime.NewSimRunner()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	url := httpNode(t, n)
	sdk := client.New(url)
	ctx := context.Background()
	for i := 0; i < blocks; i++ {
		if _, err := sdk.SubmitTx(ctx, transferTx(holders[0], holders[1], 1+uint64(i))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if _, err := n.MineOne(1); err != nil {
			t.Fatalf("mine %d: %v", i, err)
		}
	}

	got, err := sdk.Blocks(ctx, 1, 3)
	if err != nil {
		t.Fatalf("Blocks(1,3): %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("Blocks(1,3) = %d blocks", len(got))
	}
	for i, b := range got {
		want, _ := n.BlockAt(uint64(i + 1))
		if b.Header.Hash() != want.Header.Hash() {
			t.Fatalf("block %d hash mismatch", i+1)
		}
	}

	// Short answer: the node serves the durable prefix it has.
	if got, err = sdk.Blocks(ctx, 4, 64); err != nil || len(got) != 2 {
		t.Fatalf("Blocks(4,64) = %d blocks, %v; want the 2-block tail", len(got), err)
	}

	// Missing starting height: 404 with the stable machine code.
	var ae *client.APIError
	if _, err = sdk.Blocks(ctx, blocks+10, 2); !errors.As(err, &ae) ||
		ae.Status != http.StatusNotFound || ae.Code != wire.CodeBlockNotFound {
		t.Fatalf("Blocks past head err = %v, want 404 %s", err, wire.CodeBlockNotFound)
	}

	// Malformed parameters: 400 bad_request, checked over raw HTTP so the
	// SDK's own validation cannot mask the server's.
	for _, q := range []string{"from=abc&count=2", "from=1&count=junk", "from=1&count=0", "from=1"} {
		resp, err := http.Get(url + "/v1/blocks?" + q)
		if err != nil {
			t.Fatalf("GET ?%s: %v", q, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET ?%s status = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestV1ReceiptNotVisibleBeforeDurable parks a pipelined node with a
// sealed-not-durable block and checks the crash rule on the client API:
// the receipt stays pending and the block is unserved until the
// durability verdict lands.
func TestV1ReceiptNotVisibleBeforeDurable(t *testing.T) {
	dir := t.TempDir()
	n, calls := pipeNode(t, engine.KindSerial, dir, 2, persist.Options{SnapshotEvery: -1}, nil)
	defer n.Close()
	n.SubmitAll(calls)
	sdk := sdkFor(t, n)
	ctx := context.Background()

	// Seal a block but do not submit it to the persist stage.
	block, err := n.mineOnePipelined(recBlockSize, false)
	if err != nil {
		t.Fatalf("seal: %v", err)
	}
	txID := wire.TxIDOf(block.Calls[0]).String()

	rec, err := sdk.Receipt(ctx, txID)
	if err != nil {
		t.Fatalf("receipt while sealed-not-durable: %v", err)
	}
	if rec.Status != wire.StatusPending {
		t.Fatalf("sealed-not-durable receipt status = %q, want pending", rec.Status)
	}
	if _, err := sdk.Block(ctx, 1); !client.IsCode(err, wire.CodeBlockNotFound) {
		t.Fatalf("sealed-not-durable block served: %v", err)
	}
	if head, err := sdk.Head(ctx); err != nil || head.Number != 0 {
		t.Fatalf("head = %+v, %v (want durable height 0)", head, err)
	}

	// Release the persist stage; the verdict makes everything visible.
	n.mu.Lock()
	entry := n.inflight[0]
	n.mu.Unlock()
	n.submitEntry(entry)
	if err := n.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	rec, err = sdk.WaitReceipt(ctx, txID, time.Millisecond)
	if err != nil {
		t.Fatalf("receipt after durable: %v", err)
	}
	if rec.Status == wire.StatusPending || rec.BlockHeight != 1 {
		t.Fatalf("post-durability receipt = %+v", rec)
	}
	if _, err := sdk.Block(ctx, 1); err != nil {
		t.Fatalf("durable block not served: %v", err)
	}
}

// TestV1Subscribe covers the event stream: durable blocks arrive in
// order with receipts, and a client disconnecting mid-subscribe detaches
// cleanly (the server's subscriber count drops).
func TestV1Subscribe(t *testing.T) {
	w, holders := newTokenWorld(t, 4)
	n := newTestNode(t, w)
	sdk := sdkFor(t, n)
	ctx := context.Background()

	stream, err := sdk.Subscribe(ctx)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	sub, err := sdk.SubmitTx(ctx, transferTx(holders[0], holders[1], 3))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := n.MineOne(10); err != nil {
		t.Fatalf("mine: %v", err)
	}
	ev, err := stream.Next()
	if err != nil {
		t.Fatalf("next: %v", err)
	}
	if ev.Block.Number != 1 || len(ev.Receipts) != 1 {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Receipts[0].ID != sub.ID || ev.Receipts[0].Status != wire.StatusCommitted {
		t.Fatalf("event receipt = %+v", ev.Receipts[0])
	}

	// Disconnect mid-subscribe: the handler must notice and detach.
	stream.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, err := sdk.Status(ctx)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if st.API != nil && st.API.Subscribers == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscriber not detached after disconnect: %+v", st.API)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Mining after the disconnect must not block or panic.
	n.Submit(contract.Call{
		Sender: holders[1], Contract: tokenAddr, Function: "transfer",
		Args: []any{holders[0], uint64(1)}, GasLimit: 100_000,
	})
	if _, err := n.MineOne(10); err != nil {
		t.Fatalf("mine after disconnect: %v", err)
	}
}

// TestV1LegacyAliases: the unversioned routes are gone — each answers
// 404 while its /v1 twin serves — and repeated /v1 reads answer
// byte-identically.
func TestV1LegacyAliases(t *testing.T) {
	w, holders := newTokenWorld(t, 3)
	n := newTestNode(t, w)
	url := httpNode(t, n)

	body, _ := json.Marshal(transferTx(holders[0], holders[1], 2))
	for _, path := range []string{"/tx", "/v1/tx"} {
		resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		want := http.StatusAccepted
		if path == "/tx" {
			want = http.StatusNotFound
		}
		if resp.StatusCode != want {
			t.Fatalf("POST %s status = %d, want %d", path, resp.StatusCode, want)
		}
	}
	if _, err := n.MineOne(10); err != nil {
		t.Fatalf("mine: %v", err)
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	for _, path := range []string{"/head", "/status", "/blocks/1", "/snapshot"} {
		if code, _ := get(path); code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, code)
		}
		code, first := get("/v1" + path)
		if code != http.StatusOK {
			t.Fatalf("GET /v1%s = %d, want 200", path, code)
		}
		// The status payload embeds live API request counters, which the
		// probes themselves advance.
		if path == "/status" {
			continue
		}
		// A non-durable node re-encodes its snapshot per request; the
		// state encoding is canonical, so the bytes repeat.
		if _, again := get("/v1" + path); !bytes.Equal(first, again) {
			t.Fatalf("/v1%s: repeated reads differ", path)
		}
	}
}

// TestV1SnapshotCanonical: two independently built nodes at the same
// height serve byte-identical /v1/snapshot bodies. The state encoding
// writes objects in registration order and map keys in sorted order, so
// equal state means equal bytes. The Mixed workload stores every value
// kind, including Ballot's Voter and EtherDoc's DocMeta records.
func TestV1SnapshotCanonical(t *testing.T) {
	params := workload.Params{Kind: workload.KindMixed, Transactions: 60, ConflictPercent: 15, Seed: 4}
	var bodies [][]byte
	for i := 0; i < 2; i++ {
		wl, err := workload.Generate(params)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		n := newTestNode(t, wl.World)
		n.SubmitAll(wl.Calls)
		if _, err := n.MineOne(len(wl.Calls)); err != nil {
			t.Fatalf("node %d: mine: %v", i, err)
		}
		resp, err := http.Get(httpNode(t, n) + "/v1/snapshot")
		if err != nil {
			t.Fatalf("node %d: GET /v1/snapshot: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d: GET /v1/snapshot = %d, %v", i, resp.StatusCode, err)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("nodes at the same height serve different snapshot bytes (%d vs %d bytes)",
			len(bodies[0]), len(bodies[1]))
	}
}

// TestV1Balance: the state-read route reports the world currency ledger
// at the current block boundary.
func TestV1Balance(t *testing.T) {
	w, holders := newTokenWorld(t, 2)
	// Fund holder 0 in the currency ledger at genesis (setup-time mint,
	// the same pattern the contract tests use).
	if _, err := runtime.NewSimRunner().Run(1, func(th runtime.Thread) {
		tx := stm.BeginSerial(0, th, gas.NewMeter(1_000_000), w.Schedule())
		if err := w.Mint(tx, holders[0], 777); err != nil {
			t.Errorf("Mint: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	n := newTestNode(t, w)
	sdk := sdkFor(t, n)
	ctx := context.Background()
	if bal, err := sdk.Balance(ctx, holders[0]); err != nil || bal != 777 {
		t.Fatalf("funded balance = %d, %v (want 777)", bal, err)
	}
	if bal, err := sdk.Balance(ctx, holders[1]); err != nil || bal != 0 {
		t.Fatalf("unfunded balance = %d, %v (want 0)", bal, err)
	}
}

// TestV1StatusMetrics: the serving layer's request accounting shows up
// under the status document's api key.
func TestV1StatusMetrics(t *testing.T) {
	w, _ := newTokenWorld(t, 2)
	n := newTestNode(t, w)
	sdk := sdkFor(t, n)
	ctx := context.Background()

	if _, err := sdk.Head(ctx); err != nil {
		t.Fatalf("head: %v", err)
	}
	_, _ = sdk.Receipt(ctx, types.HashString("nope").String()) // a counted error
	st, err := sdk.Status(ctx)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.API == nil {
		t.Fatal("status.api missing")
	}
	if st.API.Requests < 3 || st.API.Errors < 1 {
		t.Fatalf("api metrics = %+v", st.API)
	}
	if st.API.ByRoute["GET /v1/head"] < 1 || st.API.ByRoute["GET /v1/tx/{id}"] < 1 {
		t.Fatalf("byRoute = %+v", st.API.ByRoute)
	}
}

// TestV1SnapshotContentLength: both snapshot paths (cached wire bytes on
// a durable node, generated on a non-durable one) declare an exact
// Content-Length — proxies and the SDK rely on it.
func TestV1SnapshotContentLength(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "generated"
		if durable {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			w, holders := newTokenWorld(t, 3)
			cfg := Config{World: w, Workers: 2, Runner: runtime.NewSimRunner()}
			if durable {
				cfg.DataDir = t.TempDir()
				cfg.Persist = persist.Options{SnapshotEvery: 1}
			}
			n, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer n.Close()
			n.Submit(contract.Call{
				Sender: holders[0], Contract: tokenAddr, Function: "transfer",
				Args: []any{holders[1], uint64(1)}, GasLimit: 100_000,
			})
			if _, err := n.MineOne(5); err != nil {
				t.Fatalf("mine: %v", err)
			}
			url := httpNode(t, n)
			resp, err := http.Get(url + "/v1/snapshot")
			if err != nil {
				t.Fatalf("GET snapshot: %v", err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("snapshot status = %d", resp.StatusCode)
			}
			cl := resp.Header.Get("Content-Length")
			if cl == "" {
				t.Fatal("snapshot response missing Content-Length")
			}
			if want := len(body); cl != itoa(want) {
				t.Fatalf("Content-Length = %s, body = %d bytes", cl, want)
			}
		})
	}
}

// TestV1ErrorLogHook: response-encoding failures reach the node-level
// error hook instead of vanishing.
func TestV1ErrorLogHook(t *testing.T) {
	w, _ := newTokenWorld(t, 2)
	var logged []error
	n, err := New(Config{
		World: w, Workers: 2, Runner: runtime.NewSimRunner(),
		ErrorLog: func(e error) { logged = append(logged, e) },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	url := httpNode(t, n)
	// A client that disconnects before the body is written forces an
	// encode error on the server side.
	req, _ := http.NewRequest(http.MethodGet, url+"/v1/status", nil)
	ctx, cancel := context.WithCancel(context.Background())
	req = req.WithContext(ctx)
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	_, _ = http.DefaultClient.Do(req)
	// The hook firing is timing-dependent (the write may win the race),
	// so only assert that hooked errors, if any, are the encode kind.
	for _, e := range logged {
		if !strings.Contains(e.Error(), "encode") {
			t.Fatalf("unexpected hooked error: %v", e)
		}
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}
