package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"threedess/internal/core"
	"threedess/internal/features"
	"threedess/internal/shapedb"
)

// oracle answers the benchmark's searches with an in-process single-node
// engine forced onto the exhaustive scan (core.ScanExact), over the same
// records the servers hold.
type oracle struct {
	db   *shapedb.DB
	eng  *core.Engine
	base []*shapedb.Record // the records before any write of the window
	// uniformByID: query-by-id is answered with explicit uniform weights.
	// A coordinator canonicalizes unweighted searches that way, which makes
	// its tie order canonical; a single node serves them from the R-tree.
	uniformByID bool
}

func newOracle(db *shapedb.DB, uniformByID bool) *oracle {
	eng := core.NewEngine(db)
	eng.SetSearchMode(core.ScanExact)
	return &oracle{db: db, eng: eng, base: db.Snapshot(), uniformByID: uniformByID}
}

func uniform(dim int) []float64 {
	w := make([]float64, dim)
	for i := range w {
		w[i] = 1
	}
	return w
}

// tiesAsSets reports whether rows at equal distance may come back in any
// order: unweighted single-node searches run on the R-tree, whose tie
// order is not canonical.
func (o *oracle) tiesAsSets(req request) bool {
	if req.Weights != nil {
		return false
	}
	return req.Op == opUnweighted || (req.Op == opByID && !o.uniformByID)
}

// answer computes the exact answer to req. An unweighted search is run
// with explicit uniform weights (arithmetically identical distances) so
// the scan applies; extra rows beyond k let a tie group cut at the k-th
// row be checked as a subset.
func (o *oracle) answer(req request) ([]core.Result, error) {
	var q features.Set
	if req.QueryID != 0 {
		set, err := o.eng.QueryFeatures(req.QueryID)
		if err != nil {
			return nil, err
		}
		q = features.Set{req.Feature: set[req.Feature]}
	} else {
		q = features.Set{req.Feature: req.Vector}
	}
	w := req.Weights
	if w == nil {
		w = uniform(len(q[req.Feature]))
	}
	opt := core.Options{Feature: req.Feature, Weights: w, Mode: core.ScanExact}
	if req.Threshold != nil {
		opt.Threshold = *req.Threshold
		return o.eng.SearchThreshold(ctxBackground, q, opt)
	}
	opt.K = req.K + 1 + 16
	res, err := o.eng.SearchTopK(ctxBackground, q, opt)
	if err != nil {
		return nil, err
	}
	if req.QueryID != 0 {
		res = core.ExcludeID(res, req.QueryID)
	}
	return res, nil
}

// compare checks an answer against the oracle's rows bit for bit: ids,
// names, groups, distances and similarities, in order. With tieSets, rows
// at equal distance are compared as sets, and the tie group cut by k must
// be a subset of the oracle's rows at that distance.
func compare(got []wireResult, want []core.Result, k int, threshold, tieSets bool) string {
	if !threshold && len(want) > k {
		if !tieSets {
			want = want[:k]
		}
	}
	if threshold || !tieSets {
		if len(got) != len(want) {
			return fmt.Sprintf("%d rows, oracle has %d", len(got), len(want))
		}
	}
	byID := make(map[int64]core.Result, len(want))
	for _, w := range want {
		byID[w.ID] = w
	}
	for i, g := range got {
		var w core.Result
		if tieSets {
			var ok bool
			if w, ok = byID[g.ID]; !ok || w.Distance != g.Distance {
				return fmt.Sprintf("row %d: id %d at %g not in the oracle's answer at that distance", i, g.ID, g.Distance)
			}
			if i < len(want) && want[i].Distance != g.Distance {
				return fmt.Sprintf("row %d: distance %g, oracle %g", i, g.Distance, want[i].Distance)
			}
		} else {
			w = want[i]
			if g.ID != w.ID || g.Distance != w.Distance {
				return fmt.Sprintf("row %d: id %d at %g, oracle id %d at %g", i, g.ID, g.Distance, w.ID, w.Distance)
			}
		}
		if g.Name != w.Name || g.Group != w.Group || g.Similarity != w.Similarity {
			return fmt.Sprintf("row %d (id %d): name/group/similarity %q/%d/%g, oracle %q/%d/%g",
				i, g.ID, g.Name, g.Group, g.Similarity, w.Name, w.Group, w.Similarity)
		}
	}
	if tieSets {
		// Every row strictly closer than the last returned distance must be
		// present: only the final tie group may be cut.
		seen := make(map[int64]bool, len(got))
		for _, g := range got {
			seen[g.ID] = true
		}
		if len(got) > 0 {
			last := got[len(got)-1].Distance
			for _, w := range want {
				if w.Distance < last && !seen[w.ID] {
					return fmt.Sprintf("oracle row %d at %g missing", w.ID, w.Distance)
				}
			}
		}
	}
	return ""
}

// verifyKept compares every retained answer with the oracle. writes are
// the acknowledged inserts in acknowledgment order with their stored
// records; an answer may reflect any prefix of them between the writes
// acknowledged when it was sent and those acknowledged shortly after it
// returned, so the oracle's store grows through those states as answers
// are checked in send order. It returns the number of answers compared.
func (o *oracle) verifyKept(ks []kept, writes []*shapedb.Record) (int, error) {
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].acksAtSend < ks[j].acksAtSend })
	applied := 0
	apply := func(n int) error {
		for ; applied < n && applied < len(writes); applied++ {
			r := writes[applied]
			if _, err := o.db.InsertWith(r.Name, r.Group, r.Mesh, r.Features, shapedb.InsertOpts{ID: r.ID}); err != nil {
				return fmt.Errorf("oracle: applying write %d: %w", r.ID, err)
			}
		}
		return nil
	}
	var retry []kept
	for _, k := range ks {
		if err := apply(k.acksAtSend); err != nil {
			return 0, err
		}
		if diff, err := o.check(k); err != nil {
			return 0, err
		} else if diff != "" {
			if k.acksAtSend >= len(writes) {
				return 0, fmt.Errorf("oracle mismatch on %s %s: %s", k.req.Op, k.req.Body, diff)
			}
			retry = append(retry, k)
		}
	}
	// Answers that raced a write: check them against the later states.
	for _, k := range retry {
		ok := false
		for n := k.acksAtSend + 1; n <= min(k.acksAtReturn+2, len(writes)); n++ {
			fresh, err := o.rebuild(writes[:n])
			if err != nil {
				return 0, err
			}
			if diff, err := fresh.check(k); err != nil {
				return 0, err
			} else if diff == "" {
				ok = true
				break
			}
		}
		if !ok {
			diff, _ := o.check(k)
			return 0, fmt.Errorf("oracle mismatch on %s %s (raced %d writes): %s", k.req.Op, k.req.Body, k.acksAtReturn-k.acksAtSend, diff)
		}
	}
	return len(ks), nil
}

// rebuild returns an oracle over the base records plus the given writes.
func (o *oracle) rebuild(writes []*shapedb.Record) (*oracle, error) {
	db, err := shapedb.Open("", o.db.Options())
	if err != nil {
		return nil, err
	}
	var err2 error
	add := func(r *shapedb.Record) {
		if err2 == nil {
			_, err2 = db.InsertWith(r.Name, r.Group, r.Mesh, r.Features, shapedb.InsertOpts{ID: r.ID})
		}
	}
	for _, r := range o.base {
		add(r)
	}
	for _, r := range writes {
		add(r)
	}
	if err2 != nil {
		return nil, err2
	}
	fresh := newOracle(db, o.uniformByID)
	fresh.base = o.base
	return fresh, nil
}

func (o *oracle) check(k kept) (string, error) {
	var rows []wireResult
	if err := json.Unmarshal(k.body, &rows); err != nil {
		return "", fmt.Errorf("decoding a kept answer: %w", err)
	}
	want, err := o.answer(k.req)
	if err != nil {
		return "", fmt.Errorf("oracle: %w", err)
	}
	return compare(rows, want, k.req.K, k.req.Threshold != nil, o.tiesAsSets(k.req)), nil
}
