package index

// The query and subscription API, Blockbook-style, over stdlib HTTP.
// Every query response carries the index tip it was answered at
// (indexHeight/indexHash), so a client — or the load test's staleness
// assertion — can compare what it read against the chain tip it saw
// before asking. Subscriptions are long-lived GET requests streaming one
// JSON object per line; the hub never blocks on a slow client, and a
// client learns about its own gaps through the dropped counter.

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"typecoin/internal/bkey"
	"typecoin/internal/chainhash"
	"typecoin/internal/store"
	"typecoin/internal/wire"
)

// Handler returns the index API. Routes:
//
//	GET /status                     index tip, subscriber count
//	GET /address/{principal}        paginated address history
//	GET /principal/{principal}      paginated Typecoin activity
//	GET /outspend/{outpoint}        spending tx of txid:n
//	GET /sync                       bulk initial-sync dump of history rows
//	GET /subscribe                  JSON-lines event stream
//	GET /audit                      from-genesis rebuild comparison
func (ix *Indexer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /status", ix.instrument("status", ix.handleStatus))
	mux.Handle("GET /address/{principal}", ix.instrument("address", ix.handleAddress))
	mux.Handle("GET /principal/{principal}", ix.instrument("principal", ix.handlePrincipal))
	mux.Handle("GET /outspend/{outpoint}", ix.instrument("outspend", ix.handleOutspend))
	mux.Handle("GET /sync", ix.instrument("sync", ix.handleSync))
	mux.Handle("GET /subscribe", http.HandlerFunc(ix.handleSubscribe))
	mux.Handle("GET /audit", ix.instrument("audit", ix.handleAudit))
	return mux
}

// instrument counts and times one endpoint.
func (ix *Indexer) instrument(name string, fn http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		fn(w, r)
		ix.tel.queries.With(name).Inc()
		if ix.tel.querySeconds != nil {
			ix.tel.querySeconds.Observe(time.Since(start).Seconds())
		}
	})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// tipInfo is the index-tip stamp carried by every query response.
type tipInfo struct {
	IndexHeight int    `json:"indexHeight"`
	IndexHash   string `json:"indexHash"`
}

func (ix *Indexer) tipInfo() (tipInfo, error) {
	h, height, err := ix.Tip()
	if err != nil {
		return tipInfo{}, err
	}
	return tipInfo{IndexHeight: height, IndexHash: h.String()}, nil
}

func (ix *Indexer) handleStatus(w http.ResponseWriter, r *http.Request) {
	ti, err := ix.tipInfo()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, struct {
		tipInfo
		ChainHeight int `json:"chainHeight"`
		Subscribers int `json:"subscribers"`
	}{ti, ix.c.BestHeight(), ix.hub.active()})
}

// ParseCursor parses the "cursor" query parameter: empty (start), or
// "height.txIndex" decimal — the position of the last row the client
// already has. Exported for the fuzz harness.
func ParseCursor(s string) (Cursor, error) {
	if s == "" {
		return Cursor{}, nil
	}
	dot := strings.IndexByte(s, '.')
	if dot < 0 {
		return Cursor{}, fmt.Errorf("index: cursor %q: want height.txIndex", s)
	}
	h, err := strconv.ParseUint(s[:dot], 10, 32)
	if err != nil {
		return Cursor{}, fmt.Errorf("index: cursor height %q: %v", s[:dot], err)
	}
	t, err := strconv.ParseUint(s[dot+1:], 10, 32)
	if err != nil {
		return Cursor{}, fmt.Errorf("index: cursor txIndex %q: %v", s[dot+1:], err)
	}
	return Cursor{Height: uint32(h), TxIndex: uint32(t), Set: true}, nil
}

// FormatCursor renders a cursor as ParseCursor's input.
func FormatCursor(c Cursor) string {
	return strconv.FormatUint(uint64(c.Height), 10) + "." + strconv.FormatUint(uint64(c.TxIndex), 10)
}

// ParseLimit parses the "limit" query parameter, clamped to
// [1, MaxPageLimit]; empty selects DefaultPageLimit. Exported for the
// fuzz harness.
func ParseLimit(s string) (int, error) {
	if s == "" {
		return DefaultPageLimit, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("index: limit %q: want a positive integer", s)
	}
	if n > MaxPageLimit {
		n = MaxPageLimit
	}
	return n, nil
}

// ParseOutpoint parses "txid:n" with txid in the usual reversed-hex
// display form. Exported for the fuzz harness.
func ParseOutpoint(s string) (wire.OutPoint, error) {
	colon := strings.LastIndexByte(s, ':')
	if colon < 0 {
		return wire.OutPoint{}, fmt.Errorf("index: outpoint %q: want txid:n", s)
	}
	h, err := chainhash.NewHashFromStr(s[:colon])
	if err != nil {
		return wire.OutPoint{}, fmt.Errorf("index: outpoint txid: %v", err)
	}
	n, err := strconv.ParseUint(s[colon+1:], 10, 32)
	if err != nil {
		return wire.OutPoint{}, fmt.Errorf("index: outpoint index %q: %v", s[colon+1:], err)
	}
	return wire.OutPoint{Hash: h, Index: uint32(n)}, nil
}

// histJSON is the wire form of one history row.
type histJSON struct {
	TxID    string `json:"txid"`
	Height  int    `json:"height"`
	TxIndex int    `json:"txIndex"`
	Funded  int64  `json:"funded"`
	Spent   int64  `json:"spent"`
	Roles   string `json:"roles"` // "funded", "spent" or "funded+spent"
}

func rolesString(flags byte) string {
	switch {
	case flags&RoleFunded != 0 && flags&RoleSpent != 0:
		return "funded+spent"
	case flags&RoleSpent != 0:
		return "spent"
	default:
		return "funded"
	}
}

func pageParams(r *http.Request) (Cursor, int, error) {
	cur, err := ParseCursor(r.URL.Query().Get("cursor"))
	if err != nil {
		return Cursor{}, 0, err
	}
	limit, err := ParseLimit(r.URL.Query().Get("limit"))
	if err != nil {
		return Cursor{}, 0, err
	}
	return cur, limit, nil
}

func (ix *Indexer) handleAddress(w http.ResponseWriter, r *http.Request) {
	p, err := bkey.ParsePrincipal(r.PathValue("principal"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	cur, limit, err := pageParams(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ti, err := ix.tipInfo()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	entries, next, err := ix.AddressHistory(p, cur, limit)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	out := make([]histJSON, len(entries))
	for i, e := range entries {
		out[i] = histJSON{
			TxID: e.TxID.String(), Height: e.Height, TxIndex: e.TxIndex,
			Funded: e.Funded, Spent: e.Spent, Roles: rolesString(e.Flags),
		}
	}
	resp := struct {
		tipInfo
		Address    string     `json:"address"`
		Entries    []histJSON `json:"entries"`
		NextCursor string     `json:"nextCursor,omitempty"`
	}{ti, p.String(), out, ""}
	if next != nil {
		resp.NextCursor = FormatCursor(*next)
	}
	writeJSON(w, resp)
}

func (ix *Indexer) handlePrincipal(w http.ResponseWriter, r *http.Request) {
	p, err := bkey.ParsePrincipal(r.PathValue("principal"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	cur, limit, err := pageParams(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ti, err := ix.tipInfo()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	entries, next, err := ix.PrincipalActivity(p, cur, limit)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	type prinJSON struct {
		TxID       string `json:"txid"`
		Commitment string `json:"commitment"`
		Height     int    `json:"height"`
		TxIndex    int    `json:"txIndex"`
		Roles      string `json:"roles"`
	}
	out := make([]prinJSON, len(entries))
	for i, e := range entries {
		out[i] = prinJSON{
			TxID: e.TxID.String(), Commitment: e.Commitment.String(),
			Height: e.Height, TxIndex: e.TxIndex, Roles: rolesString(e.Flags),
		}
	}
	resp := struct {
		tipInfo
		Principal  string     `json:"principal"`
		Entries    []prinJSON `json:"entries"`
		NextCursor string     `json:"nextCursor,omitempty"`
	}{ti, p.String(), out, ""}
	if next != nil {
		resp.NextCursor = FormatCursor(*next)
	}
	writeJSON(w, resp)
}

func (ix *Indexer) handleOutspend(w http.ResponseWriter, r *http.Request) {
	op, err := ParseOutpoint(r.PathValue("outpoint"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ti, err := ix.tipInfo()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	info, spent, err := ix.Outspend(op)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	resp := struct {
		tipInfo
		Spent   bool   `json:"spent"`
		Spender string `json:"spender,omitempty"`
		Vin     uint32 `json:"vin"`
		Height  int    `json:"height"`
	}{ti, spent, "", 0, 0}
	if spent {
		resp.Spender = info.Spender.String()
		resp.Vin = info.Vin
		resp.Height = info.Height
	}
	writeJSON(w, resp)
}

// handleSync is the bulk initial-sync endpoint: it dumps history rows
// for ALL addresses in key order, paginated by an opaque hex cursor (the
// last key of the previous page), so a fresh client can mirror the
// whole address index without issuing one request per address.
func (ix *Indexer) handleSync(w http.ResponseWriter, r *http.Request) {
	limit, err := ParseLimit(r.URL.Query().Get("limit"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	prefix := []byte("ih")
	start := prefix
	if c := r.URL.Query().Get("cursor"); c != "" {
		last, err := hex.DecodeString(c)
		if err != nil || len(last) != addrKeyLen || last[0] != 'i' || last[1] != 'h' {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("index: bad sync cursor"))
			return
		}
		// Resume strictly after the last delivered key.
		start = append(last, 0)
	}
	ti, err := ix.tipInfo()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	type syncRow struct {
		Address string `json:"address"`
		histJSON
	}
	var (
		rows    []syncRow
		lastKey []byte
		more    bool
		scanErr error
	)
	stop := fmt.Errorf("index: sync done")
	err = store.IterateFrom(ix.st, prefix, start, func(k, v []byte) error {
		if len(rows) >= limit {
			more = true
			return stop
		}
		height, txIdx, err := decodeAddrKey(k)
		if err != nil {
			scanErr = err
			return stop
		}
		txid, flags, funded, spent, err := decodeHist(v)
		if err != nil {
			scanErr = err
			return stop
		}
		var p bkey.Principal
		copy(p[:], k[2:2+bkey.PrincipalSize])
		rows = append(rows, syncRow{
			Address: p.String(),
			histJSON: histJSON{
				TxID: txid.String(), Height: int(height), TxIndex: int(txIdx),
				Funded: funded, Spent: spent, Roles: rolesString(flags),
			},
		})
		lastKey = append(lastKey[:0], k...)
		return nil
	})
	if (err != nil && err != stop) || scanErr != nil {
		if scanErr != nil {
			err = scanErr
		}
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	resp := struct {
		tipInfo
		Rows       []syncRow `json:"rows"`
		NextCursor string    `json:"nextCursor,omitempty"`
	}{ti, rows, ""}
	if more {
		resp.NextCursor = hex.EncodeToString(lastKey)
	}
	writeJSON(w, resp)
}

func (ix *Indexer) handleAudit(w http.ResponseWriter, r *http.Request) {
	if err := ix.AuditRebuild(); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	ti, err := ix.tipInfo()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, struct {
		tipInfo
		OK bool `json:"ok"`
	}{ti, true})
}

// ParseAddrList parses the comma-separated "addrs" subscription
// parameter. Exported for the fuzz harness.
func ParseAddrList(s string) ([]bkey.Principal, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]bkey.Principal, 0, len(parts))
	for _, part := range parts {
		p, err := bkey.ParsePrincipal(part)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// eventJSON is the line format of the subscription stream.
type eventJSON struct {
	Type      string `json:"type"` // hello | block | tx | address
	Dropped   int    `json:"dropped,omitempty"`
	Height    int    `json:"height,omitempty"`
	Hash      string `json:"hash,omitempty"`
	Connected *bool  `json:"connected,omitempty"`
	TxCount   int    `json:"txCount,omitempty"`
	TxID      string `json:"txid,omitempty"`
	Address   string `json:"address,omitempty"`
	TxIndex   int    `json:"txIndex,omitempty"`
	Funded    int64  `json:"funded,omitempty"`
	Spent     int64  `json:"spent,omitempty"`
	Roles     string `json:"roles,omitempty"`
}

// handleSubscribe streams hub events as JSON lines until the client
// disconnects. Parameters: blocks=1, txs=1, addrs=<hex,hex,...>; with
// no parameters the stream carries only the hello line and block
// events (the least surprising default for a chain-tip watcher). The
// hello line carries the index tip, so a client can bulk-sync through
// /sync and /address and splice the stream on without a gap.
func (ix *Indexer) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	addrs, err := ParseAddrList(q.Get("addrs"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	wantBlocks := q.Get("blocks") != "0"
	wantTxs := q.Get("txs") == "1"

	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("index: streaming unsupported"))
		return
	}
	sub := ix.hub.subscribe(wantBlocks, wantTxs, addrs)
	defer ix.hub.unsubscribe(sub)
	ix.tel.subscribes.Inc()
	if ix.tel.tracer != nil {
		ix.tel.tracer.Record(evIndexSubscriber, r.RemoteAddr, "subscribed")
		defer ix.tel.tracer.Record(evIndexSubscriber, r.RemoteAddr, "unsubscribed")
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	enc := json.NewEncoder(w)
	ti, err := ix.tipInfo()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	_ = enc.Encode(eventJSON{Type: "hello", Height: ti.IndexHeight, Hash: ti.IndexHash})
	flusher.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-sub.ch:
			var line eventJSON
			switch {
			case ev.Block != nil:
				conn := ev.Block.Connected
				line = eventJSON{
					Type: "block", Hash: ev.Block.Hash.String(),
					Height: ev.Block.Height, Connected: &conn,
					TxCount: ev.Block.TxCount,
				}
			case ev.Tx != nil:
				line = eventJSON{Type: "tx", TxID: ev.Tx.TxID.String()}
			case ev.Addr != nil:
				conn := ev.Addr.Connected
				line = eventJSON{
					Type: "address", Address: ev.Addr.Principal.String(),
					TxID: ev.Addr.TxID.String(), Height: ev.Addr.Height,
					TxIndex: ev.Addr.TxIndex, Connected: &conn,
					Funded: ev.Addr.Funded, Spent: ev.Addr.Spent,
					Roles: rolesString(ev.Addr.Flags),
				}
			default:
				continue
			}
			line.Dropped = ev.Dropped
			if err := enc.Encode(line); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}
