package geo

import "fmt"

// City is a populated place hosting CDN users in the evaluation. The paper
// collects traces from nine edge-server clusters; the same nine cities are
// the default evaluation locations here. Language groups drive the content
// overlap kernel in the workload model (Table 2 of the paper shows overlap
// follows language more than raw distance inside Europe).
type City struct {
	Name     string
	Country  string
	Point    Point
	Language string  // dominant content language group
	Weight   float64 // relative traffic weight (normalised population/demand proxy)
}

// PaperCities returns the nine Akamai trace locations from §3.1 of the paper,
// in the paper's order: Mexico City, Dallas, Atlanta, Washington D.C.,
// New York City, London, Frankfurt, Vienna, Istanbul.
func PaperCities() []City {
	return []City{
		{Name: "Mexico City", Country: "Mexico", Point: NewPoint(19.433, -99.133), Language: "es", Weight: 0.9},
		{Name: "Dallas", Country: "USA", Point: NewPoint(32.777, -96.797), Language: "en-us", Weight: 1.0},
		{Name: "Atlanta", Country: "USA", Point: NewPoint(33.749, -84.388), Language: "en-us", Weight: 1.0},
		{Name: "Washington DC", Country: "USA", Point: NewPoint(38.907, -77.037), Language: "en-us", Weight: 1.0},
		{Name: "New York", Country: "USA", Point: NewPoint(40.713, -74.006), Language: "en-us", Weight: 1.4},
		{Name: "London", Country: "Britain", Point: NewPoint(51.507, -0.128), Language: "en-gb", Weight: 1.2},
		{Name: "Frankfurt", Country: "Germany", Point: NewPoint(50.110, 8.682), Language: "de", Weight: 1.0},
		{Name: "Vienna", Country: "Austria", Point: NewPoint(48.208, 16.373), Language: "de", Weight: 0.7},
		{Name: "Istanbul", Country: "Turkey", Point: NewPoint(41.008, 28.978), Language: "tr", Weight: 1.1},
	}
}

// ExtendedCities returns a wider set of cities suitable for larger-scale
// simulations, including the paper's nine plus additional major Starlink
// markets on several continents.
func ExtendedCities() []City {
	extra := []City{
		{Name: "Los Angeles", Country: "USA", Point: NewPoint(34.052, -118.244), Language: "en-us", Weight: 1.3},
		{Name: "Chicago", Country: "USA", Point: NewPoint(41.878, -87.630), Language: "en-us", Weight: 1.1},
		{Name: "Seattle", Country: "USA", Point: NewPoint(47.606, -122.332), Language: "en-us", Weight: 0.8},
		{Name: "Toronto", Country: "Canada", Point: NewPoint(43.651, -79.383), Language: "en-us", Weight: 0.9},
		{Name: "Sao Paulo", Country: "Brazil", Point: NewPoint(-23.551, -46.633), Language: "pt", Weight: 1.2},
		{Name: "Madrid", Country: "Spain", Point: NewPoint(40.417, -3.704), Language: "es", Weight: 0.9},
		{Name: "Paris", Country: "France", Point: NewPoint(48.857, 2.352), Language: "fr", Weight: 1.1},
		{Name: "Warsaw", Country: "Poland", Point: NewPoint(52.230, 21.012), Language: "pl", Weight: 0.8},
		{Name: "Lagos", Country: "Nigeria", Point: NewPoint(6.524, 3.379), Language: "en-gb", Weight: 0.9},
		{Name: "Nairobi", Country: "Kenya", Point: NewPoint(-1.286, 36.817), Language: "en-gb", Weight: 0.7},
		{Name: "Tokyo", Country: "Japan", Point: NewPoint(35.677, 139.650), Language: "ja", Weight: 1.3},
		{Name: "Sydney", Country: "Australia", Point: NewPoint(-33.869, 151.209), Language: "en-gb", Weight: 0.9},
	}
	return append(PaperCities(), extra...)
}

// GroundStation is a Starlink gateway location with a terrestrial backhaul.
type GroundStation struct {
	Name  string
	Point Point
}

// DefaultGroundStations returns a representative set of Starlink gateway
// sites covering the evaluation regions.
func DefaultGroundStations() []GroundStation {
	return []GroundStation{
		{Name: "North Bend WA", Point: NewPoint(47.496, -121.787)},
		{Name: "Merrillan WI", Point: NewPoint(44.452, -90.842)},
		{Name: "Greenville PA", Point: NewPoint(41.404, -80.383)},
		{Name: "Dallas TX", Point: NewPoint(32.9, -97.0)},
		{Name: "Robles MX", Point: NewPoint(19.8, -99.8)},
		{Name: "Goonhilly UK", Point: NewPoint(50.048, -5.182)},
		{Name: "Aerzen DE", Point: NewPoint(52.049, 9.263)},
		{Name: "Frascati IT", Point: NewPoint(41.807, 12.677)},
		{Name: "Ankara TR", Point: NewPoint(39.933, 32.860)},
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
func NearestGroundStation(gs []GroundStation, p Point) (int, float64) {
	best, bestD := -1, 0.0
	for i, g := range gs {
		d := DistanceKm(g.Point, p)
		if best == -1 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}
