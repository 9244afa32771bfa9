package geo

import (
	"sort"

	"powerroute/internal/units"
)

// State describes one US state (or the District of Columbia) as a client
// population: its size and the approximate centroid of where its people
// live. The paper derives "basic population density functions for each US
// state" from census data (§6.1); a population-weighted centroid is the
// single-point equivalent and is accurate enough for the client-server
// distance proxy, whose own granularity is the state.
type State struct {
	Code       string   // two-letter postal code
	Name       string   // full name
	Population int      // ~2008 resident population
	Centroid   Point    // approximate population centroid
	Zone       TimeZone // majority time zone
}

// states embeds public census facts: ~2008 populations (thousands rounded
// to the nearest thousand) and approximate population centroids. Centroids
// are weighted toward each state's metropolitan areas, not its geometric
// center (e.g. New York's sits near NYC, Illinois' near Chicago).
var states = []State{
	{"AL", "Alabama", 4662000, Point{32.80, -86.70}, Central},
	{"AK", "Alaska", 686000, Point{61.20, -149.90}, Alaska},
	{"AZ", "Arizona", 6500000, Point{33.40, -112.00}, Mountain},
	{"AR", "Arkansas", 2855000, Point{34.80, -92.40}, Central},
	{"CA", "California", 36756000, Point{35.46, -119.35}, Pacific},
	{"CO", "Colorado", 4939000, Point{39.70, -104.90}, Mountain},
	{"CT", "Connecticut", 3501000, Point{41.50, -72.90}, Eastern},
	{"DE", "Delaware", 873000, Point{39.40, -75.60}, Eastern},
	{"DC", "District of Columbia", 592000, Point{38.90, -77.00}, Eastern},
	{"FL", "Florida", 18328000, Point{27.80, -81.60}, Eastern},
	{"GA", "Georgia", 9686000, Point{33.30, -84.40}, Eastern},
	{"HI", "Hawaii", 1288000, Point{21.30, -157.80}, Hawaii},
	{"ID", "Idaho", 1524000, Point{43.60, -116.20}, Mountain},
	{"IL", "Illinois", 12902000, Point{41.30, -88.40}, Central},
	{"IN", "Indiana", 6377000, Point{39.90, -86.30}, Eastern},
	{"IA", "Iowa", 3003000, Point{41.90, -93.40}, Central},
	{"KS", "Kansas", 2802000, Point{38.50, -96.80}, Central},
	{"KY", "Kentucky", 4269000, Point{37.80, -85.30}, Eastern},
	{"LA", "Louisiana", 4411000, Point{30.70, -91.50}, Central},
	{"ME", "Maine", 1316000, Point{44.40, -69.80}, Eastern},
	{"MD", "Maryland", 5634000, Point{39.10, -76.80}, Eastern},
	{"MA", "Massachusetts", 6498000, Point{42.27, -71.36}, Eastern},
	{"MI", "Michigan", 10003000, Point{42.87, -84.00}, Eastern},
	{"MN", "Minnesota", 5220000, Point{45.30, -93.90}, Central},
	{"MS", "Mississippi", 2939000, Point{32.60, -89.70}, Central},
	{"MO", "Missouri", 5912000, Point{38.50, -92.50}, Central},
	{"MT", "Montana", 967000, Point{46.70, -111.80}, Mountain},
	{"NE", "Nebraska", 1783000, Point{41.20, -97.00}, Central},
	{"NV", "Nevada", 2600000, Point{36.80, -115.60}, Pacific},
	{"NH", "New Hampshire", 1316000, Point{43.00, -71.50}, Eastern},
	{"NJ", "New Jersey", 8683000, Point{40.40, -74.40}, Eastern},
	{"NM", "New Mexico", 1984000, Point{34.80, -106.40}, Mountain},
	{"NY", "New York", 19490000, Point{41.20, -74.40}, Eastern},
	{"NC", "North Carolina", 9222000, Point{35.50, -79.80}, Eastern},
	{"ND", "North Dakota", 641000, Point{47.40, -100.30}, Central},
	{"OH", "Ohio", 11485000, Point{40.20, -82.70}, Eastern},
	{"OK", "Oklahoma", 3642000, Point{35.50, -97.20}, Central},
	{"OR", "Oregon", 3790000, Point{44.90, -123.00}, Pacific},
	{"PA", "Pennsylvania", 12448000, Point{40.45, -76.70}, Eastern},
	{"RI", "Rhode Island", 1051000, Point{41.80, -71.40}, Eastern},
	{"SC", "South Carolina", 4480000, Point{34.00, -81.00}, Eastern},
	{"SD", "South Dakota", 804000, Point{44.00, -100.00}, Central},
	{"TN", "Tennessee", 6215000, Point{35.80, -86.40}, Central},
	{"TX", "Texas", 24327000, Point{30.90, -97.40}, Central},
	{"UT", "Utah", 2736000, Point{40.40, -111.90}, Mountain},
	{"VT", "Vermont", 621000, Point{44.10, -72.70}, Eastern},
	{"VA", "Virginia", 7769000, Point{38.00, -77.60}, Eastern},
	{"WA", "Washington", 6549000, Point{47.40, -121.80}, Pacific},
	{"WV", "West Virginia", 1814000, Point{38.70, -80.70}, Eastern},
	{"WI", "Wisconsin", 5628000, Point{43.70, -88.70}, Central},
	{"WY", "Wyoming", 533000, Point{42.90, -107.00}, Mountain},
}

// States returns all US states plus DC, sorted by postal code. The returned
// slice is a copy; callers may mutate it freely.
func States() []State {
	out := make([]State, len(states))
	copy(out, states)
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// TotalUSPopulation returns the sum of all state populations in the table.
func TotalUSPopulation() int {
	total := 0
	for i := range states {
		total += states[i].Population
	}
	return total
}

// StateDistance returns the population-weighted distance between the
// clients of a state and a server location: the haversine distance from the
// state's population centroid to the server point. This is the paper's
// client-server distance metric at the resolution its data permits (§6.1).
func StateDistance(s State, server Point) units.Distance {
	return Distance(s.Centroid, server)
}
