package geo

import "fmt"

// City is a populated place hosting CDN users in the evaluation. The paper
// collects traces from nine edge-server clusters; the same nine cities are
// the default evaluation locations here. Language groups drive the content
// overlap kernel in the workload model (Table 2 of the paper shows overlap
// follows language more than raw distance inside Europe).
type City struct {
	Name     string
	Point    Point
	Language string  // dominant content language group
	Weight   float64 // relative traffic weight (normalised population/demand proxy)
}

// PaperCities returns the nine Akamai trace locations from §3.1 of the paper,
// in the paper's order: Mexico City, Dallas, Atlanta, Washington D.C.,
// New York City, London, Frankfurt, Vienna, Istanbul.
func PaperCities() []City {
	return []City{
		{Name: "Mexico City", Point: NewPoint(19.433, -99.133), Language: "es", Weight: 0.9},
		{Name: "Dallas", Point: NewPoint(32.777, -96.797), Language: "en-us", Weight: 1.0},
		{Name: "Atlanta", Point: NewPoint(33.749, -84.388), Language: "en-us", Weight: 1.0},
		{Name: "Washington DC", Point: NewPoint(38.907, -77.037), Language: "en-us", Weight: 1.0},
		{Name: "New York", Point: NewPoint(40.713, -74.006), Language: "en-us", Weight: 1.4},
		{Name: "London", Point: NewPoint(51.507, -0.128), Language: "en-gb", Weight: 1.2},
		{Name: "Frankfurt", Point: NewPoint(50.110, 8.682), Language: "de", Weight: 1.0},
		{Name: "Vienna", Point: NewPoint(48.208, 16.373), Language: "de", Weight: 0.7},
		{Name: "Istanbul", Point: NewPoint(41.008, 28.978), Language: "tr", Weight: 1.1},
	}
}

// ExtendedCities returns a wider set of cities suitable for larger-scale
// simulations, including the paper's nine plus additional major Starlink
// markets on several continents.
func ExtendedCities() []City {
	extra := []City{
		{Name: "Los Angeles", Point: NewPoint(34.052, -118.244), Language: "en-us", Weight: 1.3},
		{Name: "Chicago", Point: NewPoint(41.878, -87.630), Language: "en-us", Weight: 1.1},
		{Name: "Seattle", Point: NewPoint(47.606, -122.332), Language: "en-us", Weight: 0.8},
		{Name: "Toronto", Point: NewPoint(43.651, -79.383), Language: "en-us", Weight: 0.9},
		{Name: "Sao Paulo", Point: NewPoint(-23.551, -46.633), Language: "pt", Weight: 1.2},
		{Name: "Madrid", Point: NewPoint(40.417, -3.704), Language: "es", Weight: 0.9},
		{Name: "Paris", Point: NewPoint(48.857, 2.352), Language: "fr", Weight: 1.1},
		{Name: "Warsaw", Point: NewPoint(52.230, 21.012), Language: "pl", Weight: 0.8},
		{Name: "Lagos", Point: NewPoint(6.524, 3.379), Language: "en-gb", Weight: 0.9},
		{Name: "Nairobi", Point: NewPoint(-1.286, 36.817), Language: "en-gb", Weight: 0.7},
		{Name: "Tokyo", Point: NewPoint(35.677, 139.650), Language: "ja", Weight: 1.3},
		{Name: "Sydney", Point: NewPoint(-33.869, 151.209), Language: "en-gb", Weight: 0.9},
	}
	return append(PaperCities(), extra...)
}

// DefaultGroundStations returns the locations of a representative set of
// Starlink gateways (ground stations with a terrestrial backhaul) covering
// the evaluation regions.
func DefaultGroundStations() []Point {
	return []Point{
		NewPoint(47.496, -121.787), // North Bend WA
		NewPoint(44.452, -90.842),  // Merrillan WI
		NewPoint(41.404, -80.383),  // Greenville PA
		NewPoint(32.9, -97.0),      // Dallas TX
		NewPoint(19.8, -99.8),      // Robles MX
		NewPoint(50.048, -5.182),   // Goonhilly UK
		NewPoint(52.049, 9.263),    // Aerzen DE
		NewPoint(41.807, 12.677),   // Frascati IT
		NewPoint(39.933, 32.860),   // Ankara TR
	}
}

// CityByName returns the city with the given name from the list, or an error
// if no such city exists.
func CityByName(cities []City, name string) (City, error) {
	for _, c := range cities {
		if c.Name == name {
			return c, nil
		}
	}
	return City{}, fmt.Errorf("geo: unknown city %q", name)
}

// NearestGroundStation returns the index of the ground station closest to p
// and its distance in kilometres. It returns index -1 if gs is empty.
func NearestGroundStation(gs []Point, p Point) (int, float64) {
	best, bestD := -1, 0.0
	for i, g := range gs {
		d := DistanceKm(g, p)
		if best == -1 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}
