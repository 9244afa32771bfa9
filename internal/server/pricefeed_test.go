package server

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"strings"
	"testing"
	"time"

	"powerroute/internal/cluster"
)

// oneHubFeed builds a feed over a single-cluster fleet whose only hub is
// "H" — the smallest world in which every feed semantic (overlay,
// chronology, prune, publish) is observable.
func oneHubFeed() *priceFeed {
	fleet := &cluster.Fleet{Clusters: []cluster.Cluster{{Code: "C0", HubID: "H"}}}
	return newPriceFeed(fleet)
}

func mustIngest(t *testing.T, f *priceFeed, at time.Time, price float64) {
	t.Helper()
	if _, _, _, err := f.commit(pricePost{At: at, Prices: map[string]float64{"H": price}}.batch()); err != nil {
		t.Fatal(err)
	}
}

// TestPriceFeedPrune: the feed retains only the covering entry at or
// before the oldest future lookup instant, lookups after pruning resolve
// exactly as before, and pruning at or behind the first entry keeps
// every entry.
func TestPriceFeedPrune(t *testing.T) {
	f := oneHubFeed()
	t0 := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		mustIngest(t, f, t0.Add(time.Duration(i)*time.Hour), float64(i))
	}
	f.prune(t0.Add(5*time.Hour + 30*time.Minute))
	if f.entries() != 5 { // entries 5..9; entry 5 covers 5:30
		t.Fatalf("feed holds %d entries after prune, want 5", f.entries())
	}
	if got := f.lookup(t0.Add(5*time.Hour + 30*time.Minute)); got[0] != 5 {
		t.Fatalf("covering lookup = %v, want 5", got[0])
	}
	// Pre-threshold instants clamp to the retained covering entry.
	if got := f.lookup(t0); got[0] != 5 {
		t.Fatalf("clamped lookup = %v, want 5", got[0])
	}
	f.prune(t0)
	if f.entries() != 5 {
		t.Fatalf("no-op prune changed length to %d", f.entries())
	}
}

// TestPriceFeedChronology: a stale post is refused with 409 and the
// chronology error, and records nothing.
func TestPriceFeedChronology(t *testing.T) {
	f := oneHubFeed()
	t0 := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	mustIngest(t, f, t0.Add(time.Hour), 10)
	_, _, code, err := f.commit(pricePost{At: t0, Prices: map[string]float64{"H": 5}}.batch())
	if err == nil || !strings.Contains(err.Error(), "precedes newest feed entry") {
		t.Fatalf("stale post: got %v", err)
	}
	if code != 409 {
		t.Fatalf("stale post code = %d, want 409", code)
	}
	if f.entries() != 1 {
		t.Fatal("rejected post was recorded")
	}
}

// feedEntry is one entry of FuzzPriceFeed's reference model.
type feedEntry struct {
	at  time.Time
	vec []float64
}

// modelLookup resolves t against the model by a linear scan: the newest
// entry at or before t, clamped to the first; nil when empty.
func modelLookup(model []feedEntry, t time.Time) []float64 {
	if len(model) == 0 {
		return nil
	}
	got := model[0].vec
	for _, e := range model {
		if e.at.After(t) {
			break
		}
		got = e.vec
	}
	return got
}

// modelPush applies one accepted entry under the overlay rule: a push at
// the newest instant replaces that entry, anything later appends.
func modelPush(model []feedEntry, at time.Time, vec []float64) []feedEntry {
	if n := len(model); n > 0 && at.Equal(model[n-1].at) {
		model[n-1] = feedEntry{at, vec}
		return model
	}
	return append(model, feedEntry{at, vec})
}

// sameVec compares two price vectors bit for bit.
func sameVec(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzPriceFeed checks the feed against a reference model: a plain slice
// of (instant, vector) entries built by the overlay rule and resolved by
// a linear scan. From the seed it builds a fleet of 1–4 clusters on 1–3
// hubs plus one hub hosting none, then runs a schedule of JSON posts at
// irregular instants (re-posts at the newest instant and stale posts
// included), aligned binary batches at a step the lookups do not share
// (with gaps between them, and some starting at the newest instant),
// prunes, resets, and lookups before the feed, at entries, between
// entries and past the feed. JSON posts commit as the daemon commits
// them, as one-row batches (pricePost.batch). Every lookup must match the
// model bit for bit, and every accept or refuse decision, its status
// code, the ignored-hub count and the entry count must match.
func FuzzPriceFeed(f *testing.F) {
	for seed := uint64(1); seed <= 24; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		nHubs := 1 + rng.IntN(3)
		hubs := make([]string, nHubs+1)
		for i := range hubs {
			hubs[i] = fmt.Sprintf("H%d", i)
		}
		hubs[nHubs] = "U" // hosts no cluster
		fleet := &cluster.Fleet{}
		hubClusters := map[string][]int{}
		for c := range 1 + rng.IntN(4) {
			hub := hubs[rng.IntN(nHubs)]
			fleet.Clusters = append(fleet.Clusters, cluster.Cluster{Code: fmt.Sprintf("C%d", c), HubID: hub})
			hubClusters[hub] = append(hubClusters[hub], c)
		}
		nc := len(fleet.Clusters)
		feed := newPriceFeed(fleet)

		t0 := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
		var model []feedEntry
		price := func() float64 { return float64(rng.IntN(2000)-500) / 8 }
		newest := func() time.Time {
			if len(model) == 0 {
				return t0
			}
			return model[len(model)-1].at
		}
		// instant picks a post's instant: mostly later than the newest
		// by an irregular gap, sometimes the newest itself or stale.
		instant := func() time.Time {
			switch r := rng.IntN(10); {
			case r == 0:
				return newest()
			case r == 1:
				return newest().Add(-time.Duration(1+rng.IntN(90)) * time.Minute)
			default:
				return newest().Add(time.Duration(1+rng.IntN(120)) * time.Minute)
			}
		}
		// covered reports whether the named hubs price every cluster
		// (always true once the feed holds an entry to overlay).
		covered := func(named map[string]bool) bool {
			if len(model) > 0 {
				return true
			}
			for _, cl := range fleet.Clusters {
				if !named[cl.HubID] {
					return false
				}
			}
			return true
		}
		overlayBase := func() []float64 {
			vec := make([]float64, nc)
			if len(model) > 0 {
				copy(vec, model[len(model)-1].vec)
			}
			return vec
		}

		for op := 0; op < 300; op++ {
			switch r := rng.IntN(20); {
			case r < 6: // JSON post
				at := instant()
				prices := map[string]float64{}
				named := map[string]bool{}
				for _, hub := range hubs {
					if rng.IntN(3) > 0 {
						prices[hub] = price()
						named[hub] = true
					}
				}
				if len(prices) == 0 {
					prices[hubs[0]] = price()
					named[hubs[0]] = true
				}
				wantIgnored := 0
				vec := overlayBase()
				for hub, p := range prices {
					if len(hubClusters[hub]) == 0 {
						wantIgnored++
					}
					for _, c := range hubClusters[hub] {
						vec[c] = p
					}
				}
				wantCode := 0
				switch {
				case !covered(named):
					wantCode = http.StatusBadRequest
				case at.Before(newest()) && len(model) > 0:
					wantCode = http.StatusConflict
				}
				ignored, entries, code, err := feed.commit(pricePost{At: at, Prices: prices}.batch())
				if code != wantCode || (err != nil) != (wantCode != 0) {
					t.Fatalf("op %d: JSON post at %v: code %d err %v, want code %d", op, at, code, err, wantCode)
				}
				if ignored != wantIgnored {
					t.Fatalf("op %d: JSON post ignored %d hubs, want %d", op, ignored, wantIgnored)
				}
				if wantCode == 0 {
					model = modelPush(model, at, vec)
					if entries != len(model) {
						t.Fatalf("op %d: JSON post reports %d entries, model holds %d", op, entries, len(model))
					}
				}
			case r < 10: // binary batch
				step := time.Duration(1+rng.IntN(4)) * 15 * time.Minute
				var start time.Time
				switch k := rng.IntN(8); {
				case k == 0:
					start = newest()
				case k == 1 && len(model) > 0:
					start = newest().Add(-step)
				default:
					start = newest().Add(time.Duration(1+rng.IntN(3)) * step)
				}
				var cols []string
				named := map[string]bool{}
				for _, i := range rng.Perm(len(hubs)) {
					if rng.IntN(4) > 0 {
						cols = append(cols, hubs[i])
						named[hubs[i]] = true
					}
				}
				if len(cols) == 0 {
					cols = append(cols, hubs[0])
					named[hubs[0]] = true
				}
				h := &BatchHeader{Kind: "prices", Start: start, Step: step, Rows: 1 + rng.IntN(12), Cols: len(cols), Hubs: cols}
				flat := make([]float64, h.Rows*h.Cols)
				for i := range flat {
					flat[i] = price()
				}
				wantCode := 0
				switch {
				case len(model) > 0 && start.Before(newest()):
					wantCode = http.StatusConflict
				case !covered(named):
					wantCode = http.StatusBadRequest
				}
				wantIgnored := 0
				for _, hub := range cols {
					if len(hubClusters[hub]) == 0 {
						wantIgnored++
					}
				}
				ignored, entries, code, err := feed.commit(h, flat)
				if code != wantCode || (err != nil) != (wantCode != 0) {
					t.Fatalf("op %d: batch at %v: code %d err %v, want code %d", op, start, code, err, wantCode)
				}
				if ignored != wantIgnored {
					t.Fatalf("op %d: batch ignored %d hubs, want %d", op, ignored, wantIgnored)
				}
				if wantCode == 0 {
					for i := 0; i < h.Rows; i++ {
						vec := overlayBase()
						for col, hub := range cols {
							for _, c := range hubClusters[hub] {
								vec[c] = flat[i*h.Cols+col]
							}
						}
						model = modelPush(model, start.Add(time.Duration(i)*step), vec)
					}
					if entries != len(model) {
						t.Fatalf("op %d: batch reports %d entries, model holds %d", op, entries, len(model))
					}
				}
			case r == 10: // prune
				oldest := newest().Add(-time.Duration(rng.IntN(240)) * time.Minute)
				feed.prune(oldest)
				keep := 0
				for i, e := range model {
					if !e.at.After(oldest) {
						keep = i
					}
				}
				model = model[keep:]
			case r == 11 && rng.IntN(4) == 0: // reset
				feed.reset()
				model = nil
			default: // lookups
				for range 8 {
					var at time.Time
					switch k := rng.IntN(4); {
					case len(model) == 0 || k == 0: // before the feed
						at = newest().Add(-time.Duration(rng.IntN(1e6)) * time.Minute)
						if len(model) > 0 {
							at = model[0].at.Add(-time.Duration(1+rng.IntN(1e4)) * time.Second)
						}
					case k == 1: // at an entry
						at = model[rng.IntN(len(model))].at
					case k == 2: // between entries
						i := rng.IntN(len(model))
						gap := time.Hour
						if i+1 < len(model) {
							gap = model[i+1].at.Sub(model[i].at)
						}
						at = model[i].at.Add(time.Duration(rng.Int64N(int64(gap))))
					default: // past the feed
						at = newest().Add(time.Duration(1+rng.IntN(1e6)) * time.Second)
					}
					want := modelLookup(model, at)
					if got := feed.lookup(at); !sameVec(got, want) {
						t.Fatalf("op %d: lookup(%v) = %v, model %v", op, at, got, want)
					}
				}
			}
			if feed.entries() != len(model) {
				t.Fatalf("op %d: feed holds %d entries, model %d", op, feed.entries(), len(model))
			}
		}
	})
}
