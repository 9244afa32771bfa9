package server

import (
	"fmt"
	"math"
	"net/http"
	"slices"
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

// priceFeed is the daemon's price store: one flat history of per-cluster
// rows, nc prices each in fleet order (the exact shape routing needs),
// row i taking effect at instant at[i] (Unix nanoseconds, strictly
// increasing). Like the engine it feeds, a priceFeed is not safe for
// concurrent use: the Server guards it with the engine's lock, so a
// price commit, a demand row's two lookups and a status read of the
// entry count each see one whole feed.
type priceFeed struct {
	fleet       *cluster.Fleet
	hubClusters map[string][]int // hub id → cluster indices; fixed at construction
	nc          int              // prices per entry: the fleet's cluster count

	at []int64
	px []float64
}

func newPriceFeed(fleet *cluster.Fleet) *priceFeed {
	f := &priceFeed{fleet: fleet, hubClusters: make(map[string][]int), nc: len(fleet.Clusters)}
	for c, cl := range fleet.Clusters {
		f.hubClusters[cl.HubID] = append(f.hubClusters[cl.HubID], c)
	}
	return f
}

// entries returns the entry count — what feed_entries responses and the
// price_feed_entries metric report.
func (f *priceFeed) entries() int { return len(f.at) }

// row returns entry i's per-cluster vector.
func (f *priceFeed) row(i int) []float64 { return f.px[i*f.nc : (i+1)*f.nc : (i+1)*f.nc] }

// lookup returns the vector covering instant at — the newest entry at or
// before it, clamped to the first entry for pre-feed instants, exactly as
// the batch engine clamps decision times to the start of market data.
// Returns nil when the feed is empty.
//
// A replayed feed posts one row per interval, so the covering entry is
// found by arithmetic: the guess i = (t − at[0]) / (at[1] − at[0]) is
// accepted only when at[i] ≤ t < at[i+1]. Instants strictly increase, so
// exactly one i passes that check, and it is the entry the binary search
// returns. A guess that fails — an irregular feed, or a wrapped
// subtraction — falls back to the search, so every feed resolves exactly
// as by the search alone.
func (f *priceFeed) lookup(at time.Time) []float64 {
	n := len(f.at)
	if n == 0 {
		return nil
	}
	t := at.UnixNano()
	switch {
	case t >= f.at[n-1]:
		return f.row(n - 1)
	case t < f.at[0]:
		return f.row(0)
	}
	// Here n ≥ 2, so the spacing is nonzero (and positive unless the
	// subtraction wrapped), and at[0] ≤ t < at[n−1].
	if i := (t - f.at[0]) / (f.at[1] - f.at[0]); i >= 0 && i < int64(n-1) && f.at[i] <= t && t < f.at[i+1] {
		return f.row(int(i))
	}
	i, found := slices.BinarySearch(f.at, t)
	if !found {
		i--
	}
	return f.row(i)
}

// commit records one staged prices batch: flat holds its rows×cols
// prices, already decoded and validated, column j pricing every cluster
// on hub h.Hubs[j]. Each row overlays the vector before it, and a row at
// the newest instant corrects that entry. The batch commits whole or not
// at all: a row older than the newest entry is refused with 409, and a
// batch that would leave a cluster unpriced in an empty feed with 400.
// ignored counts the hubs that host no cluster. A JSON price post
// commits as a one-row batch.
func (f *priceFeed) commit(h *BatchHeader, flat []float64) (ignored, entries, code int, err error) {
	cols := make([][]int, h.Cols)
	covered := make([]bool, f.nc)
	for j, hub := range h.Hubs {
		cols[j] = f.hubClusters[hub]
		if len(cols[j]) == 0 {
			ignored++
		}
		for _, c := range cols[j] {
			covered[c] = true
		}
	}
	// A batch's instants strictly increase (ParseBatchHeader checks that
	// they fit in int64 nanoseconds, handlePrices that a JSON post's
	// instant does), so only its first row can violate chronology.
	start, step := h.Start.UnixNano(), int64(h.Step)
	n := len(f.at)
	if n > 0 && start < f.at[n-1] {
		return ignored, 0, http.StatusConflict, fmt.Errorf("server: price at %v precedes newest feed entry %v",
			time.Unix(0, start).UTC(), time.Unix(0, f.at[n-1]).UTC())
	}
	if c := slices.Index(covered, false); n == 0 && c >= 0 {
		cl := f.fleet.Clusters[c]
		return ignored, 0, http.StatusBadRequest, fmt.Errorf("no price yet for cluster %s (hub %s)", cl.Code, cl.HubID)
	}
	// Nothing below can fail: roll one vector forward through the rows
	// and append each, or overwrite the newest entry it corrects.
	vec := make([]float64, f.nc)
	if n > 0 {
		copy(vec, f.row(n-1))
	}
	f.at = slices.Grow(f.at, h.Rows)
	f.px = slices.Grow(f.px, h.Rows*f.nc)
	for i := range h.Rows {
		for j, price := range flat[i*h.Cols : (i+1)*h.Cols] {
			for _, c := range cols[j] {
				vec[c] = price
			}
		}
		if t := start + int64(i)*step; len(f.at) == 0 || t > f.at[len(f.at)-1] {
			f.at = append(f.at, t)
			f.px = append(f.px, vec...)
		} else {
			copy(f.row(len(f.at)-1), vec)
		}
	}
	return ignored, len(f.at), 0, nil
}

// prune drops entries that can never be looked up again — everything
// strictly older than the newest entry at or before oldest — and
// re-backs the arrays, so the feed retains nothing it pruned.
func (f *priceFeed) prune(oldest time.Time) {
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
}

// reset drops everything: the feed belonged to a replaced run
// (checkpoint restore).
func (f *priceFeed) reset() { f.at, f.px = nil, nil }
