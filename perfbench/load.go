package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"threedess/internal/features"
)

// Operation names. Each is one request type of a workload mix and one
// latency sample set of the report.
const (
	opWeighted    = "weighted"     // weighted top-k by query_vector
	opUnweighted  = "unweighted"   // unweighted top-k by query_vector
	opThreshold   = "threshold"    // weighted similarity threshold by query_vector
	opByID        = "by_id"        // top-k by query_id
	opUpload      = "upload_query" // top-k by mesh_off (query by example)
	opUploadSelf  = "upload_self"  // mesh_off of a stored shape: must find itself at distance 0
	opInsert      = "insert"       // POST /api/shapes
	opBatchInsert = "batch"        // POST /api/shapes/batch
)

// request is one generated HTTP request plus what its answer must satisfy.
type request struct {
	Op     string
	Method string
	Path   string
	Body   []byte

	// Search parameters, for checking the answer.
	Feature   features.Kind
	Vector    []float64
	Weights   []float64
	K         int
	Threshold *float64
	QueryID   int64
	Self      int64 // opUploadSelf: the id that must come first

	Names []string // inserts: the names of the shapes sent
}

// searchBody is the wire form of a search (server.SearchRequest's fields).
type searchBody struct {
	QueryID     int64     `json:"query_id,omitempty"`
	MeshOFF     string    `json:"mesh_off,omitempty"`
	QueryVector []float64 `json:"query_vector,omitempty"`
	Feature     string    `json:"feature"`
	Threshold   *float64  `json:"threshold,omitempty"`
	K           int       `json:"k,omitempty"`
	Weights     []float64 `json:"weights,omitempty"`
}

// wireShape is one shape of an insert body.
type wireShape struct {
	Name    string `json:"name"`
	Group   int    `json:"group"`
	MeshOFF string `json:"mesh_off"`
}

// wireResult is one search result row.
type wireResult struct {
	ID         int64   `json:"id"`
	Name       string  `json:"name"`
	Group      int     `json:"group"`
	Distance   float64 `json:"distance"`
	Similarity float64 `json:"similarity"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding request: %v", err)) // only plain structs are encoded
	}
	return b
}

func searchRequest(op string, b searchBody, kind features.Kind) request {
	b.Feature = kind.String()
	return request{
		Op: op, Method: http.MethodPost, Path: "/api/search", Body: mustJSON(b),
		Feature: kind, Vector: b.QueryVector, Weights: b.Weights, K: b.K,
		Threshold: b.Threshold, QueryID: b.QueryID,
	}
}

// stream yields one connection's requests. The same seed yields the same
// sequence, byte for byte.
type stream interface {
	next() request
}

// conn is one keep-alive HTTP connection of the closed loop.
type conn struct {
	client *http.Client
	base   string
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// response is an answer as the client saw it. lat runs from send to the
// last body byte.
type response struct {
	status int
	header http.Header
	body   []byte
	lat    time.Duration
	err    error
}

func (c *conn) do(method, path string, body []byte) response {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return response{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return response{err: err, lat: time.Since(t0)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return response{status: resp.StatusCode, header: resp.Header, body: b, lat: time.Since(t0), err: err}
}

// getJSON fetches path and decodes it into out, requiring 200.
func (c *conn) getJSON(path string, out any) error {
	r := c.do(http.MethodGet, path, nil)
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, r.status, bytes.TrimSpace(r.body))
	}
	return json.Unmarshal(r.body, out)
}

// ack is one acknowledged write: the id the server assigned and the
// shape's name.
type ack struct {
	ID   int64
	Name string
}

// kept is an answer retained for the post-window oracle, with how many
// writes had been acknowledged when it was sent and when it returned.
type kept struct {
	req          request
	body         []byte
	acksAtSend   int
	acksAtReturn int
}

// ledger collects one timed window's outcomes across connections.
type ledger struct {
	mu        sync.Mutex
	lat       map[string]sample
	attempted map[string]int
	failed    map[string]int
	failures  []string // first few failure reasons, for the report
	acks      []ack
	kept      []kept
	cacheHits int
	shapes    int // shapes acknowledged by inserts
	done      []event
	start     time.Time
	lastDone  time.Time
}

// event is one correctly answered request: when it finished (from the
// window's start), whether it was a query, its latency, and how many
// shapes it stored.
type event struct {
	at     time.Duration
	read   bool
	lat    time.Duration
	shapes int
}

func newLedger() *ledger {
	return &ledger{lat: map[string]sample{}, attempted: map[string]int{}, failed: map[string]int{}, start: time.Now()}
}

func (l *ledger) ackCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.acks)
}

// record books one finished request. fail is "" for a correct answer and
// ids are the ids an insert was acknowledged with. keep retains a search
// answer for the oracle; acksAtSend is how many writes had been
// acknowledged when it was sent.
func (l *ledger) record(req request, r response, fail string, ids []int64, keep bool, acksAtSend int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted[req.Op]++
	l.lastDone = time.Now()
	if fail != "" {
		l.failed[req.Op]++
		if len(l.failures) < 8 {
			l.failures = append(l.failures, req.Op+": "+fail)
		}
		return
	}
	l.lat[req.Op] = append(l.lat[req.Op], r.lat)
	l.done = append(l.done, event{at: l.lastDone.Sub(l.start), read: req.Names == nil, lat: r.lat, shapes: len(ids)})
	if r.header.Get("X-Cache") == "hit" {
		l.cacheHits++
	}
	for i, id := range ids {
		l.acks = append(l.acks, ack{ID: id, Name: req.Names[i]})
	}
	l.shapes += len(ids)
	if keep && len(ids) == 0 {
		l.kept = append(l.kept, kept{req: req, body: r.body, acksAtSend: acksAtSend, acksAtReturn: len(l.acks)})
	}
}

func (l *ledger) totals() (attempted, failed int) {
	for op, n := range l.attempted {
		attempted += n
		failed += l.failed[op]
	}
	return attempted, failed
}

// check validates an answer on the request path: status, the headers that
// mark a degraded or partial answer, and the answer's shape. It returns a
// failure reason ("" = correct), the decoded rows of a search and the ids
// of an insert.
func check(req request, r response) (fail string, rows []wireResult, ids []int64) {
	switch {
	case r.err != nil:
		return "transport: " + r.err.Error(), nil, nil
	case r.header.Get("X-Degraded") != "":
		return "degraded answer: " + r.header.Get("X-Degraded"), nil, nil
	case r.header.Get("X-Partial-Results") != "":
		return "partial answer, missing " + r.header.Get("X-Partial-Results"), nil, nil
	}
	switch req.Op {
	case opInsert:
		if r.status != http.StatusCreated {
			return fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body)), nil, nil
		}
		var out struct{ ID int64 }
		if err := json.Unmarshal(r.body, &out); err != nil || out.ID <= 0 {
			return fmt.Sprintf("bad insert answer %q", r.body), nil, nil
		}
		return "", nil, []int64{out.ID}
	case opBatchInsert:
		if r.status != http.StatusCreated {
			return fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body)), nil, nil
		}
		var out struct{ IDs []int64 }
		if err := json.Unmarshal(r.body, &out); err != nil || len(out.IDs) != len(req.Names) {
			return fmt.Sprintf("bad batch answer %q", r.body), nil, nil
		}
		return "", nil, out.IDs
	}
	if r.status != http.StatusOK {
		return fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body)), nil, nil
	}
	if err := json.Unmarshal(r.body, &rows); err != nil {
		return "undecodable answer: " + err.Error(), nil, nil
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Distance < rows[i-1].Distance {
			return "rows out of distance order", nil, nil
		}
	}
	if req.Threshold != nil {
		for _, row := range rows {
			if row.Similarity < *req.Threshold {
				return fmt.Sprintf("row %d below threshold", row.ID), nil, nil
			}
		}
		return "", rows, nil
	}
	if len(rows) != req.K {
		return fmt.Sprintf("%d rows for k=%d", len(rows), req.K), nil, nil
	}
	if req.Op == opUploadSelf && (rows[0].ID != req.Self || rows[0].Distance != 0) {
		return fmt.Sprintf("stored shape %d uploaded again came back as %d at distance %g", req.Self, rows[0].ID, rows[0].Distance), nil, nil
	}
	return "", rows, nil
}

// closedLoop drives one connection per stream for d: each sends its next
// request only after the previous answer is read. keep decides which
// answers are retained for the oracle (by per-connection request index).
func closedLoop(base string, streams []stream, d time.Duration, keep func(conn, i int) bool) *ledger {
	l := newLedger()
	deadline := l.start.Add(d)
	var wg sync.WaitGroup
	for ci, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(base)
			defer c.close()
			for i := 0; time.Now().Before(deadline); i++ {
				req := s.next()
				before := l.ackCount()
				r := c.do(req.Method, req.Path, req.Body)
				fail, _, ids := check(req, r)
				l.record(req, r, fail, ids, keep(ci, i), before)
			}
		}()
	}
	wg.Wait()
	return l
}
