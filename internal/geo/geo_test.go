package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// Reference city coordinates used by the paper's distance discussion (§6.2).
var (
	boston     = Point{42.36, -71.06}
	chicago    = Point{41.88, -87.63}
	alexandria = Point{38.80, -77.05}
	nyc        = Point{40.71, -74.01}
	paloAlto   = Point{37.44, -122.14}
	losAngeles = Point{34.05, -118.24}
)

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		name     string
		a, b     Point
		wantKm   float64
		tolKm    float64
		paperRef string
	}{
		// The paper cites Boston–Alexandria ≈ 650 km and Boston–Chicago
		// ≈ 1400 km (§6.2).
		{"Boston-Alexandria", boston, alexandria, 650, 60, "§6.2"},
		{"Boston-Chicago", boston, chicago, 1400, 60, "§6.2"},
		{"Boston-NYC", boston, nyc, 300, 40, "fig 10c pair"},
		{"PaloAlto-LA", paloAlto, losAngeles, 500, 60, "fig 8 CAISO pair"},
	}
	for _, c := range cases {
		got := Distance(c.a, c.b).Km()
		if math.Abs(got-c.wantKm) > c.tolKm {
			t.Errorf("%s: distance = %.0f km, want %.0f±%.0f (%s)",
				c.name, got, c.wantKm, c.tolKm, c.paperRef)
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	gen := func(seedA, seedB int64) (Point, Point) {
		a := Point{Lat: float64(seedA%9000)/100 - 45, Lon: float64(seedA%18000)/100 - 90}
		b := Point{Lat: float64(seedB%9000)/100 - 45, Lon: float64(seedB%18000)/100 - 90}
		return a, b
	}
	// Symmetry and non-negativity.
	f := func(sa, sb int64) bool {
		a, b := gen(sa, sb)
		d1 := Distance(a, b).Km()
		d2 := Distance(b, a).Km()
		return d1 >= 0 && math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error("symmetry:", err)
	}
	// Identity: distance to self is zero.
	g := func(sa int64) bool {
		a, _ := gen(sa, sa)
		return Distance(a, a).Km() < 1e-9
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error("identity:", err)
	}
	// Triangle inequality (with tiny numerical slack).
	h := func(sa, sb, sc int64) bool {
		a, b := gen(sa, sb)
		c, _ := gen(sc, sc)
		ab := Distance(a, b).Km()
		bc := Distance(b, c).Km()
		ac := Distance(a, c).Km()
		return ac <= ab+bc+1e-6
	}
	if err := quick.Check(h, nil); err != nil {
		t.Error("triangle:", err)
	}
}

func TestDistanceBounds(t *testing.T) {
	// No two points on Earth are farther apart than half the circumference.
	half := math.Pi * EarthRadiusKm
	d := Distance(Point{90, 0}, Point{-90, 0}).Km()
	if math.Abs(d-half) > 1 {
		t.Errorf("pole-to-pole = %.0f km, want %.0f", d, half)
	}
}

func TestStatesTable(t *testing.T) {
	all := States()
	if len(all) != 51 {
		t.Fatalf("States() returned %d entries, want 51 (50 states + DC)", len(all))
	}
	seen := map[string]bool{}
	for _, s := range all {
		if len(s.Code) != 2 {
			t.Errorf("state %q: bad code %q", s.Name, s.Code)
		}
		if seen[s.Code] {
			t.Errorf("duplicate state code %q", s.Code)
		}
		seen[s.Code] = true
		if s.Population <= 0 {
			t.Errorf("state %s: population %d", s.Code, s.Population)
		}
		if !s.Centroid.Valid() {
			t.Errorf("state %s: invalid centroid %v", s.Code, s.Centroid)
		}
		// All US population centroids are in the northern/western hemisphere.
		if s.Centroid.Lat < 18 || s.Centroid.Lat > 72 || s.Centroid.Lon > -66 || s.Centroid.Lon < -180 {
			t.Errorf("state %s: implausible centroid %v", s.Code, s.Centroid)
		}
	}
	// US population in 2008 was just over 300M.
	if tot := TotalUSPopulation(); tot < 290_000_000 || tot > 320_000_000 {
		t.Errorf("TotalUSPopulation() = %d, want ≈ 304M", tot)
	}
}

func TestStatesSortedAndCopied(t *testing.T) {
	a := States()
	for i := 1; i < len(a); i++ {
		if a[i-1].Code >= a[i].Code {
			t.Fatalf("States() not sorted: %q before %q", a[i-1].Code, a[i].Code)
		}
	}
	// Mutating the returned slice must not affect the package table.
	a[0].Population = -1
	b := States()
	if b[0].Population == -1 {
		t.Error("States() exposes internal storage")
	}
}

func TestStateDistanceGeoLocality(t *testing.T) {
	// Massachusetts clients must be far closer to a Boston server than to a
	// Palo Alto server; the inverse for California clients.
	var ma, ca State
	for _, st := range States() {
		switch st.Code {
		case "MA":
			ma = st
		case "CA":
			ca = st
		}
	}
	if StateDistance(ma, boston) >= StateDistance(ma, paloAlto) {
		t.Error("MA clients closer to Palo Alto than Boston")
	}
	if StateDistance(ca, paloAlto) >= StateDistance(ca, boston) {
		t.Error("CA clients closer to Boston than Palo Alto")
	}
}

func TestLocalHour(t *testing.T) {
	cases := []struct {
		tz   TimeZone
		utc  int
		want int
	}{
		{Eastern, 0, 19},  // midnight UTC is 7pm EST
		{Eastern, 12, 7},  // noon UTC is 7am EST
		{Pacific, 0, 16},  // midnight UTC is 4pm PST
		{Pacific, 8, 0},   // 8am UTC is midnight PST
		{Central, 23, 17}, // 11pm UTC is 5pm CST
		{Hawaii, 5, 19},
	}
	for _, c := range cases {
		if got := c.tz.LocalHour(c.utc); got != c.want {
			t.Errorf("%v.LocalHour(%d) = %d, want %d", c.tz, c.utc, got, c.want)
		}
	}
}

func TestLocalHourRangeProperty(t *testing.T) {
	f := func(h int) bool {
		h = ((h % 24) + 24) % 24
		for _, tz := range []TimeZone{Eastern, Central, Mountain, Pacific, Alaska, Hawaii} {
			lh := tz.LocalHour(h)
			if lh < 0 || lh > 23 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeZoneString(t *testing.T) {
	if Eastern.String() != "ET" || Pacific.String() != "PT" {
		t.Error("time zone names wrong")
	}
	if TimeZone(3).String() != "UTC+3" {
		t.Errorf("TimeZone(3) = %q", TimeZone(3).String())
	}
}
