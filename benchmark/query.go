package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"typecoin/internal/wire"
)

// query_mix sizes. Set-up builds queryHistory blocks of payments over
// Zipf-popular addresses; the measured writer is an open loop at
// queryRate transactions a second with a block every queryPayments, and
// one closed-loop reader issues index API requests beside it.
const (
	queryCoins           = 1024
	queryHistory         = 200
	queryHistoryPayments = 12
	queryPayments        = 48
	queryRate            = 300.0 // transactions per second, open loop
	queryRounds          = 14
	queryWarmup          = 3
	queryPageLimit       = 25
	queryWalkLimit       = 10
	queryWalkPages       = 4
)

type queryWorld struct {
	*singleWorld
	handler http.Handler
	rrng    *rand.Rand // the reader's own stream
	rzipf   *rand.Zipf
	// history is the outpoints set-up created, the reader's outspend
	// targets; most have been spent since.
	history []wire.OutPoint

	// origin and sent define the open-loop schedule: transaction i of the
	// epoch is due at origin + i/queryRate.
	origin time.Time
	sent   int

	stop   chan struct{}
	reader sync.WaitGroup
	// Filled by the reader goroutine, read after reader.Wait.
	rlat    []float64
	rfailed int
	rerr    error
}

func setupQuery(ctx context.Context, cfg runConfig) (world, error) {
	s, err := openSingle("query_mix", cfg, queryCoins, queryPayments, true)
	if err != nil {
		return nil, err
	}
	q := &queryWorld{singleWorld: s, handler: s.n.index.Handler()}
	q.rrng = rand.New(rand.NewSource(cfg.seed ^ 0x9e3779b9))
	q.rzipf = rand.NewZipf(q.rrng, 1.2, 4, plainKeys-1)
	scratch := newEpoch()
	for b := 0; b < queryHistory; b++ {
		sent := 0
		for _, k := range s.payer.inputCounts(queryHistoryPayments) {
			tx, err := s.w.pay(s.payer, k, time.Time{})
			if err != nil {
				q.close()
				return nil, fmt.Errorf("history: %w", err)
			}
			sent++
			q.history = append(q.history,
				wire.OutPoint{Hash: tx.TxHash(), Index: 0}, wire.OutPoint{Hash: tx.TxHash(), Index: 1})
		}
		if err := s.commit(scratch, sent); err != nil {
			q.close()
			return nil, fmt.Errorf("history: %w", err)
		}
	}
	return q, nil
}

// beginEpoch restarts the writer's schedule and starts the reader.
func (q *queryWorld) beginEpoch(ctx context.Context, ep *epoch) error {
	q.origin, q.sent = time.Now(), 0
	q.stop = make(chan struct{})
	q.rlat, q.rfailed, q.rerr = q.rlat[:0], 0, nil
	traced := q.tr != nil && q.tr.on.Load()
	q.reader.Add(1)
	go func() {
		defer q.reader.Done()
		q.read(ctx, traced)
	}()
	return nil
}

// endEpoch stops the reader, waits for it and folds its samples into ep.
func (q *queryWorld) endEpoch(_ context.Context, ep *epoch) error {
	close(q.stop)
	q.reader.Wait()
	ep.lat["query"] = append(ep.lat["query"], q.rlat...)
	ep.attempted += len(q.rlat) + q.rfailed
	ep.failed += q.rfailed
	return q.rerr
}

// round submits queryPayments payments on the open-loop schedule, each
// timed from the moment it was due, then commits them in one block.
func (q *queryWorld) round(_ context.Context, ep *epoch) error {
	q.w.ep = ep
	if q.origin.IsZero() {
		q.origin = time.Now() // warm-up rounds run on a schedule of their own
	}
	sent := 0
	for _, k := range q.payer.inputCounts(q.perRound) {
		due := q.origin.Add(time.Duration(float64(q.sent) / queryRate * float64(time.Second)))
		q.sent++
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		ep.add("late", time.Since(due))
		ep.attempted++
		if _, err := q.w.pay(q.payer, k, due); err != nil {
			ep.failed++
			continue
		}
		sent++
	}
	return q.commit(ep, sent)
}

// recorder is the in-process http.ResponseWriter the reader hands to the
// index handler; no listener or socket is involved.
type recorder struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }
func (r *recorder) WriteHeader(code int)        { r.status = code }

func (r *recorder) reset() {
	r.status = http.StatusOK
	r.body.Reset()
	for k := range r.header {
		delete(r.header, k)
	}
}

// read is the closed-loop reader: 70 % address pages, 20 % cursor walks
// (every page of a walk is one request), 10 % outspend lookups, until
// the epoch stops it.
func (q *queryWorld) read(ctx context.Context, traced bool) {
	rec := &recorder{header: make(http.Header)}
	get := func(span, path string) bool {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
		if err != nil {
			q.rerr = err
			return false
		}
		rec.reset()
		start := time.Now()
		id := noSpan
		if traced {
			id = q.tr.begin(span, noSpan)
		}
		q.handler.ServeHTTP(rec, req)
		q.tr.end(id)
		if rec.status != http.StatusOK || rec.body.Len() == 0 {
			q.rfailed++
			q.rerr = fmt.Errorf("GET %s: status %d", path, rec.status)
			return false
		}
		q.rlat = append(q.rlat, float64(time.Since(start))/1e6)
		return true
	}
	for {
		select {
		case <-q.stop:
			return
		case <-ctx.Done():
			return
		default:
		}
		addr := q.payer.keys[q.rzipf.Uint64()].String()
		switch roll := q.rrng.Intn(10); {
		case roll < 7:
			get("index.query_address", fmt.Sprintf("/address/%s?limit=%d", addr, queryPageLimit))
		case roll < 9:
			cursor := ""
			for page := 0; page < queryWalkPages; page++ {
				path := fmt.Sprintf("/address/%s?limit=%d", addr, queryWalkLimit)
				if cursor != "" {
					path += "&cursor=" + cursor
				}
				if !get("index.query_walk", path) {
					break
				}
				var resp struct {
					NextCursor string `json:"nextCursor"`
				}
				if err := json.Unmarshal(rec.body.Bytes(), &resp); err != nil {
					q.rfailed++
					q.rerr = fmt.Errorf("GET %s: %w", path, err)
					break
				}
				if cursor = resp.NextCursor; cursor == "" {
					break
				}
			}
		default:
			op := q.history[q.rrng.Intn(len(q.history))]
			get("index.query_outspend", fmt.Sprintf("/outspend/%s:%d", op.Hash, op.Index))
		}
	}
}
