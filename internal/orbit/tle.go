package orbit

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// TLE is a NORAD two-line element set, the format the paper ingests from
// CelesTrak to obtain the Starlink shell (§5.1). Only the elements a
// circular-shell reconstruction needs are retained.
type TLE struct {
	Name                string // optional satellite name (3-line format)
	CatalogNumber       int
	EpochYear           int     // two-digit year as encoded (57-99 => 19xx)
	EpochDay            float64 // day of year with fraction
	InclinationDeg      float64
	RAANDeg             float64
	Eccentricity        float64
	ArgPerigeeDeg       float64
	MeanAnomalyDeg      float64
	MeanMotionRevPerDay float64
}

// tleChecksum computes the NORAD line checksum: the sum of all digits plus
// one per minus sign, modulo 10.
func tleChecksum(line string) int {
	sum := 0
	for _, r := range line {
		switch {
		case r >= '0' && r <= '9':
			sum += int(r - '0')
		case r == '-':
			sum++
		}
	}
	return sum % 10
}

// ParseTLE parses one element set from its two lines, validating line
// numbers, lengths, and checksums.
func ParseTLE(line1, line2 string) (TLE, error) {
	var t TLE
	if len(line1) < 69 || len(line2) < 69 {
		return t, fmt.Errorf("orbit: TLE lines must be at least 69 characters")
	}
	if line1[0] != '1' || line2[0] != '2' {
		return t, fmt.Errorf("orbit: TLE line numbers malformed")
	}
	for i, line := range []string{line1, line2} {
		want, err := strconv.Atoi(string(line[68]))
		if err != nil {
			return t, fmt.Errorf("orbit: TLE line %d checksum digit: %w", i+1, err)
		}
		if got := tleChecksum(line[:68]); got != want {
			return t, fmt.Errorf("orbit: TLE line %d checksum %d, want %d", i+1, got, want)
		}
	}
	var err error
	fieldErr := func(name string, e error) error {
		return fmt.Errorf("orbit: TLE field %s: %w", name, e)
	}
	if t.CatalogNumber, err = strconv.Atoi(strings.TrimSpace(line1[2:7])); err != nil {
		return t, fieldErr("catalog number", err)
	}
	if t.EpochYear, err = strconv.Atoi(strings.TrimSpace(line1[18:20])); err != nil {
		return t, fieldErr("epoch year", err)
	}
	if t.EpochDay, err = strconv.ParseFloat(strings.TrimSpace(line1[20:32]), 64); err != nil {
		return t, fieldErr("epoch day", err)
	}
	if t.InclinationDeg, err = strconv.ParseFloat(strings.TrimSpace(line2[8:16]), 64); err != nil {
		return t, fieldErr("inclination", err)
	}
	if t.RAANDeg, err = strconv.ParseFloat(strings.TrimSpace(line2[17:25]), 64); err != nil {
		return t, fieldErr("RAAN", err)
	}
	eccDigits := strings.TrimSpace(line2[26:33])
	if eccDigits == "" {
		eccDigits = "0"
	}
	eccInt, err := strconv.Atoi(eccDigits)
	if err != nil {
		return t, fieldErr("eccentricity", err)
	}
	t.Eccentricity = float64(eccInt) / 1e7
	if t.ArgPerigeeDeg, err = strconv.ParseFloat(strings.TrimSpace(line2[34:42]), 64); err != nil {
		return t, fieldErr("argument of perigee", err)
	}
	if t.MeanAnomalyDeg, err = strconv.ParseFloat(strings.TrimSpace(line2[43:51]), 64); err != nil {
		return t, fieldErr("mean anomaly", err)
	}
	if t.MeanMotionRevPerDay, err = strconv.ParseFloat(strings.TrimSpace(line2[52:63]), 64); err != nil {
		return t, fieldErr("mean motion", err)
	}
	if t.MeanMotionRevPerDay <= 0 {
		return t, fmt.Errorf("orbit: TLE mean motion must be positive")
	}
	return t, nil
}

// ParseTLESet reads a stream of element sets in either the 2-line or 3-line
// (name-prefixed) format, skipping blank lines.
func ParseTLESet(r io.Reader) ([]TLE, error) {
	sc := bufio.NewScanner(r)
	var out []TLE
	var name string
	var line1 string
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), "\r\n")
		if strings.TrimSpace(line) == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "1 "):
			line1 = line
		case strings.HasPrefix(line, "2 "):
			if line1 == "" {
				return nil, fmt.Errorf("orbit: TLE line 2 without preceding line 1 (record %d)", len(out)+1)
			}
			t, err := ParseTLE(line1, line)
			if err != nil {
				return nil, fmt.Errorf("orbit: record %d: %w", len(out)+1, err)
			}
			t.Name = strings.TrimSpace(name)
			out = append(out, t)
			name, line1 = "", ""
		default:
			name = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if line1 != "" {
		return nil, fmt.Errorf("orbit: trailing TLE line 1 without line 2")
	}
	return out, nil
}

// Format renders the element set back into its two lines with valid
// checksums. Fields are normalised into their TLE column ranges first
// (angles wrapped into [0, 360), epoch day into [0, 366), eccentricity and
// mean motion clamped), because the fixed-width encoding cannot represent
// out-of-range values without corrupting the columns.
func (t TLE) Format() (line1, line2 string) {
	wrap360 := func(v float64) float64 {
		v = math.Mod(v, 360)
		if v < 0 {
			v += 360
		}
		return v
	}
	epochDay := math.Mod(math.Abs(t.EpochDay), 366)
	ecc := t.Eccentricity
	if ecc < 0 {
		ecc = 0
	}
	if ecc > 0.9999999 {
		ecc = 0.9999999
	}
	motion := math.Abs(t.MeanMotionRevPerDay)
	if motion >= 100 {
		motion = math.Mod(motion, 100)
	}
	if motion < 1e-8 {
		motion = 1e-8 // the column format cannot express a non-positive rate
	}
	year := t.EpochYear % 100
	if year < 0 {
		year += 100
	}
	catalog := t.CatalogNumber % 100000
	if catalog < 0 {
		catalog += 100000
	}
	l1 := fmt.Sprintf("1 %05dU 00000A   %02d%012.8f  .00000000  00000+0  00000+0 0  999",
		catalog, year, epochDay)
	l2 := fmt.Sprintf("2 %05d %8.4f %8.4f %07d %8.4f %8.4f %11.8f    0",
		catalog, wrap360(t.InclinationDeg), wrap360(t.RAANDeg),
		int(math.Round(ecc*1e7)), wrap360(t.ArgPerigeeDeg),
		wrap360(t.MeanAnomalyDeg), motion)
	l1 = fmt.Sprintf("%-68s%d", l1, tleChecksum(l1))
	l2 = fmt.Sprintf("%-68s%d", l2, tleChecksum(l2))
	return l1, l2
}

// SyntheticTLEs emits one element set per active slot of the constellation,
// matching its Walker geometry at epoch (t=0). Used to round-trip shell
// reconstruction and to produce CelesTrak-like inputs for tests and tools.
func (c *Constellation) SyntheticTLEs(epochYear int, epochDay float64) []TLE {
	cfg := c.cfg
	revPerDay := 86400 / cfg.PeriodSec()
	var out []TLE
	for i := 0; i < c.NumSlots(); i++ {
		if !c.active[i] {
			continue
		}
		id := SatID(i)
		plane, slot := c.PlaneSlot(id)
		u := math.Mod(geoDegrees(float64(slot)*c.slotStep+float64(plane)*c.phaseStep), 360)
		if u < 0 {
			u += 360
		}
		out = append(out, TLE{
			Name:                fmt.Sprintf("STARCDN-%04d", i),
			CatalogNumber:       40000 + i,
			EpochYear:           epochYear,
			EpochDay:            epochDay,
			InclinationDeg:      cfg.InclinationDeg,
			RAANDeg:             math.Mod(geoDegrees(float64(plane)*c.raanStep), 360),
			Eccentricity:        0,
			ArgPerigeeDeg:       0,
			MeanAnomalyDeg:      u,
			MeanMotionRevPerDay: revPerDay,
		})
	}
	return out
}

// ReconstructShell assigns each element set to a (plane, slot) of the target
// shell geometry — plane by nearest RAAN, slot by nearest in-plane phase —
// and returns a constellation whose unmatched slots are inactive. This is
// the paper's §5.1 procedure: infer the grid and the out-of-slot satellites
// from observed ephemerides. Sets whose inclination deviates more than
// 2 degrees from the shell are ignored (other shells/planes in the feed).
func ReconstructShell(tles []TLE, cfg Config) (*Constellation, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for i := range c.active {
		c.SetActive(SatID(i), false)
	}
	raanStepDeg := 360.0 / float64(cfg.Planes)
	slotStepDeg := 360.0 / float64(cfg.SatsPerPlane)
	phaseStepDeg := 360.0 * float64(cfg.PhasingF) / float64(cfg.Planes*cfg.SatsPerPlane)
	matched := 0
	for _, t := range tles {
		if math.Abs(t.InclinationDeg-cfg.InclinationDeg) > 2 {
			continue
		}
		plane := int(math.Round(t.RAANDeg/raanStepDeg)) % cfg.Planes
		if plane < 0 {
			plane += cfg.Planes
		}
		u := t.ArgPerigeeDeg + t.MeanAnomalyDeg
		rel := u - float64(plane)*phaseStepDeg
		slot := int(math.Round(rel/slotStepDeg)) % cfg.SatsPerPlane
		if slot < 0 {
			slot += cfg.SatsPerPlane
		}
		c.SetActive(c.SatAt(plane, slot), true)
		matched++
	}
	if matched == 0 {
		return nil, fmt.Errorf("orbit: no element sets matched the %0.f-degree shell", cfg.InclinationDeg)
	}
	return c, nil
}

// geoDegrees converts radians to degrees without importing geo (avoiding an
// import cycle is not needed here, but the helper keeps tle.go self-contained).
func geoDegrees(rad float64) float64 { return rad * 180 / math.Pi }
