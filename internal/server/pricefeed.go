package server

import (
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"powerroute/internal/cluster"
)

// minFeedInstant and maxFeedInstant bound the instants the feed can key:
// those whose Unix time in nanoseconds fits in an int64, 1677-09-21 to
// 2262-04-11 UTC. Price posts and batch headers outside them are refused.
var (
	minFeedInstant = time.Unix(0, math.MinInt64).UTC()
	maxFeedInstant = time.Unix(0, math.MaxInt64).UTC()
)

// priceView is one immutable snapshot of the ingested price feed: flat
// rows of nc per-cluster prices (fleet order — the exact shape routing
// needs), row i taking effect at instant at[i] (Unix nanoseconds,
// strictly increasing). A view is published through priceFeed's atomic
// pointer and never mutated afterwards, so readers — the demand path
// resolving bill and decision prices, the status and metrics endpoints
// counting entries — work from whatever view they loaded without taking
// any lock.
type priceView struct {
	at      []int64
	px      []float64
	nc      int
	spacing int64 // at[1] − at[0], the stride lookup's guess assumes
}

func (v *priceView) len() int { return len(v.at) }

// row returns entry i's per-cluster vector.
func (v *priceView) row(i int) []float64 { return v.px[i*v.nc : (i+1)*v.nc : (i+1)*v.nc] }

// lookup returns the vector covering instant at — the newest entry at or
// before it, clamped to the first entry for pre-feed instants, exactly as
// the batch engine clamps decision times to the start of market data.
// Returns nil when the view is empty.
//
// A replayed feed posts one row per interval, so the covering entry is
// found by arithmetic: the guess i = (t − at[0]) / spacing is accepted
// only when at[i] ≤ t < at[i+1]. Instants strictly increase, so exactly
// one i passes that check, and it is the entry the binary search
// returns. A guess that fails — an irregular feed, or a wrapped
// subtraction — falls back to the search, so every feed resolves exactly
// as by the search alone.
func (v *priceView) lookup(at time.Time) []float64 {
	n := len(v.at)
	if n == 0 {
		return nil
	}
	t := at.UnixNano()
	switch {
	case t >= v.at[n-1]:
		return v.row(n - 1)
	case t < v.at[0]:
		return v.row(0)
	}
	// Here n ≥ 2 (so spacing > 0 unless the subtraction wrapped) and
	// at[0] ≤ t < at[n−1].
	if i := (t - v.at[0]) / v.spacing; i >= 0 && i < int64(n-1) && v.at[i] <= t && t < v.at[i+1] {
		return v.row(int(i))
	}
	i, found := slices.BinarySearch(v.at, t)
	if !found {
		i--
	}
	return v.row(i)
}

// priceFeed is the daemon's price store: one flat canonical history —
// instants in at, nc prices per entry in px — published to readers as
// immutable priceViews through an atomic pointer, RCU-style: readers
// Load and never lock, writers build a successor view and Store it.
// commitMu serializes writers: chronology checks, the canonical arrays
// behind the view, and the swap itself.
//
// Lock order: Server.mu → commitMu (the demand path and checkpoint
// restore reach the feed while holding Server.mu; price ingestion takes
// commitMu without ever touching Server.mu, which is what lets POST
// /v1/prices and POST /v1/demand run concurrently). View readers take no
// lock at all.
//
// The canonical arrays grow by append: writes land strictly beyond every
// published view's length, so sharing their backing arrays with views is
// race-free. The two mutations that would touch a published region —
// correcting the newest entry and pruning the front — re-back the arrays
// instead (see push and prune).
type priceFeed struct {
	fleet       *cluster.Fleet
	hubClusters map[string][]int // hub id → cluster indices; fixed at construction
	nc          int              // prices per entry: the fleet's cluster count

	commitMu sync.Mutex
	at       []int64   // guarded_by: commitMu
	px       []float64 // guarded_by: commitMu
	view     atomic.Pointer[priceView]
}

func newPriceFeed(fleet *cluster.Fleet) *priceFeed {
	f := &priceFeed{fleet: fleet, hubClusters: make(map[string][]int), nc: len(fleet.Clusters)}
	for c, cl := range fleet.Clusters {
		f.hubClusters[cl.HubID] = append(f.hubClusters[cl.HubID], c)
	}
	f.view.Store(&priceView{nc: f.nc})
	return f
}

// current returns the latest published view. Never nil.
func (f *priceFeed) current() *priceView { return f.view.Load() }

// entries returns the published entry count — what feed_entries
// responses and the price_feed_entries metric report.
func (f *priceFeed) entries() int { return f.current().len() }

// ingest applies one JSON price post: hub prices taking effect at an
// instant (within the int64-nanosecond range), overlaid on the newest
// vector. Hubs hosting no cluster are counted as ignored; every cluster
// must be covered once the overlay is applied. On failure nothing is
// recorded and code carries the HTTP status to report.
func (f *priceFeed) ingest(at time.Time, prices map[string]float64) (ignored, entries, code int, err error) {
	f.commitMu.Lock()
	defer f.commitMu.Unlock()
	vec := make([]float64, f.nc)
	covered := make([]bool, f.nc)
	if len(f.at) > 0 {
		copy(vec, f.last())
		for c := range covered {
			covered[c] = true
		}
	}
	for hub, price := range prices {
		idxs, ok := f.hubClusters[hub]
		if !ok {
			ignored++
			continue
		}
		for _, c := range idxs {
			vec[c] = price
			covered[c] = true
		}
	}
	for c, ok := range covered {
		if !ok {
			return ignored, 0, http.StatusBadRequest,
				fmt.Errorf("no price yet for cluster %s (hub %s)", f.fleet.Clusters[c].Code, f.fleet.Clusters[c].HubID)
		}
	}
	t := at.UnixNano()
	if err := f.checkChronology(t); err != nil {
		return ignored, 0, http.StatusConflict, err
	}
	f.push(t, vec)
	return ignored, f.publish(), 0, nil
}

// ingestBatch commits one staged binary prices batch atomically: flat
// holds the batch's rows×cols prices, already decoded and validated, and
// nothing is recorded unless the whole batch passes chronology and
// coverage — a failed batch leaves the feed exactly as it was.
func (f *priceFeed) ingestBatch(h *BatchHeader, flat []float64) (entries, code int, err error) {
	f.commitMu.Lock()
	defer f.commitMu.Unlock()
	// ParseBatchHeader guarantees a positive step and a last instant that
	// fits in int64 nanoseconds, so the batch's instants strictly increase
	// and only its first row can violate chronology.
	start, step := h.Start.UnixNano(), int64(h.Step)
	if err := f.checkChronology(start); err != nil {
		return 0, http.StatusConflict, fmt.Errorf("price row 0: %v", err)
	}
	colClusters := make([][]int, h.Cols)
	covered := make([]bool, f.nc)
	if len(f.at) > 0 {
		for c := range covered {
			covered[c] = true
		}
	}
	for i, hub := range h.Hubs {
		colClusters[i] = f.hubClusters[hub]
		for _, c := range colClusters[i] {
			covered[c] = true
		}
	}
	for c, ok := range covered {
		if !ok {
			return 0, http.StatusBadRequest,
				fmt.Errorf("no price for cluster %s (hub %s) in batch", f.fleet.Clusters[c].Code, f.fleet.Clusters[c].HubID)
		}
	}
	// Nothing below can fail: roll one vector forward through the rows,
	// append each to the canonical arrays, and publish once.
	vec := make([]float64, f.nc)
	copy(vec, f.last())
	f.at = slices.Grow(f.at, h.Rows)
	f.px = slices.Grow(f.px, h.Rows*f.nc)
	for i := 0; i < h.Rows; i++ {
		for col, price := range flat[i*h.Cols : (i+1)*h.Cols] {
			for _, c := range colClusters[col] {
				vec[c] = price
			}
		}
		f.push(start+int64(i)*step, vec)
	}
	return f.publish(), 0, nil
}

// prune drops entries that can never be looked up again — everything
// strictly older than the newest entry at or before oldest — and
// publishes the shortened view. Readers still holding an older view keep
// its arrays alive until they return (the RCU bargain), but the canonical
// arrays are re-backed so the feed itself retains nothing it pruned.
func (f *priceFeed) prune(oldest time.Time) {
	f.commitMu.Lock()
	defer f.commitMu.Unlock()
	// keep is the newest entry at or before oldest.
	keep, found := slices.BinarySearch(f.at, oldest.UnixNano())
	if !found {
		keep--
	}
	if keep <= 0 {
		return
	}
	f.at = slices.Clone(f.at[keep:])
	f.px = slices.Clone(f.px[keep*f.nc:])
	f.publish()
}

// reset drops everything — the feed belonged to a replaced run
// (checkpoint restore) — and publishes an empty view.
func (f *priceFeed) reset() {
	f.commitMu.Lock()
	defer f.commitMu.Unlock()
	f.at, f.px = nil, nil
	f.view.Store(&priceView{nc: f.nc})
}

// last returns the newest canonical vector, or nil when the feed is
// empty.
//
//lint:held commitMu callers hold the commit lock
func (f *priceFeed) last() []float64 {
	n := len(f.at)
	if n == 0 {
		return nil
	}
	return f.px[(n-1)*f.nc : n*f.nc]
}

// checkChronology refuses an entry at instant t (Unix nanoseconds) older
// than the newest one; a re-post at the newest instant is a correction.
//
//lint:held commitMu callers hold the commit lock across check+push
func (f *priceFeed) checkChronology(t int64) error {
	if n := len(f.at); n > 0 && t < f.at[n-1] {
		return fmt.Errorf("server: price at %v precedes newest feed entry %v",
			time.Unix(0, t).UTC(), time.Unix(0, f.at[n-1]).UTC())
	}
	return nil
}

// push records a copy of vec as the entry at instant t without
// publishing it. The caller has checked chronology; a push at the newest
// instant replaces that entry (feed corrections).
//
//lint:held commitMu callers hold the commit lock across check+publish
func (f *priceFeed) push(t int64, vec []float64) {
	if n := len(f.at); n > 0 && t == f.at[n-1] {
		// Overwriting in place would mutate the newest published view;
		// re-back the price array so existing views stay frozen.
		f.px = slices.Clone(f.px)
		copy(f.px[(n-1)*f.nc:], vec)
		return
	}
	f.at = append(f.at, t)
	f.px = append(f.px, vec...)
}

// publish swaps in a view of the canonical arrays (capped at the current
// length, so later appends can share the backing without touching any
// published element) and returns the entry count.
//
//lint:held commitMu callers hold the commit lock
func (f *priceFeed) publish() int {
	n := len(f.at)
	v := &priceView{at: f.at[:n:n], px: f.px[: n*f.nc : n*f.nc], nc: f.nc}
	if n >= 2 {
		v.spacing = f.at[1] - f.at[0]
	}
	f.view.Store(v)
	return n
}
