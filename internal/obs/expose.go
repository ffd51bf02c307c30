package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"starcdn/internal/obs/sketch"
)

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (# TYPE headers, cumulative _bucket/_sum/_count rows for
// histograms), sorted by series name so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	lastTyped := ""
	for _, s := range r.Snapshot() {
		if s.Name != lastTyped {
			if err := writePromTypeLines(w, s); err != nil {
				return err
			}
			lastTyped = s.Name
		}
		switch s.Kind {
		case "histogram":
			if err := writePromHistogram(w, s); err != nil {
				return err
			}
		case "topk":
			if err := writePromTopK(w, s); err != nil {
				return err
			}
		case "sketch":
			if err := writePromSketch(w, s); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				s.Name, s.LabelString(), formatFloat(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromTypeLines emits the # TYPE header(s) for a series name. Top-K
// and sketch instruments expose derived families (name_topk, name_q,
// name_samples) rather than a row under the bare name, so their headers
// describe those families in Prometheus-native kinds.
func writePromTypeLines(w io.Writer, s SeriesSnapshot) error {
	switch s.Kind {
	case "topk":
		_, err := fmt.Fprintf(w, "# TYPE %s_topk gauge\n# TYPE %s_samples counter\n", s.Name, s.Name)
		return err
	case "sketch":
		_, err := fmt.Fprintf(w, "# TYPE %s_q gauge\n# TYPE %s_samples counter\n", s.Name, s.Name)
		return err
	default:
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind)
		return err
	}
}

// writePromTopK renders a top-K instrument as rank-indexed gauge rows
// (bounded at promTopKRanks) plus the stream weight. Object keys stay out
// of the label set — the rank is the only added dimension — so scrape
// cardinality is fixed no matter how many distinct keys the stream holds;
// the full keyed entries live on the JSON exposition.
func writePromTopK(w io.Writer, s SeriesSnapshot) error {
	for i, e := range s.TopK {
		if i >= promTopKRanks {
			break
		}
		labels := append(append([]Label(nil), s.Labels...), L("rank", strconv.Itoa(i+1)))
		snap := SeriesSnapshot{Labels: labels}
		if _, err := fmt.Fprintf(w, "%s_topk%s %d\n", s.Name, snap.LabelString(), e.Count); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_samples%s %d\n", s.Name, s.LabelString(), s.TopKN)
	return err
}

// writePromSketch renders a quantile sketch as one gauge row per
// SketchQuantiles entry plus the sample count.
func writePromSketch(w io.Writer, s SeriesSnapshot) error {
	for i, q := range SketchQuantiles {
		if i >= len(s.SketchQ) {
			break
		}
		v := s.SketchQ[i]
		if math.IsNaN(v) {
			continue // empty sketch: no quantile rows, just the zero count
		}
		labels := append(append([]Label(nil), s.Labels...), L("q", formatFloat(q)))
		snap := SeriesSnapshot{Labels: labels}
		if _, err := fmt.Fprintf(w, "%s_q%s %s\n", s.Name, snap.LabelString(), formatFloat(v)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_samples%s %d\n", s.Name, s.LabelString(), s.SketchCount)
	return err
}

func writePromHistogram(w io.Writer, s SeriesSnapshot) error {
	for i, cum := range s.HistCumulative {
		le := "+Inf"
		if i < len(s.HistBounds) {
			le = formatFloat(s.HistBounds[i])
		}
		labels := append(append([]Label(nil), s.Labels...), L("le", le))
		snap := SeriesSnapshot{Labels: labels}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.Name, snap.LabelString(), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.Name, s.LabelString(), formatFloat(s.HistSum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", s.Name, s.LabelString(), s.HistCount)
	return err
}

// formatFloat renders a metric value the way Prometheus clients do: integral
// values without a decimal point, everything else in shortest-round-trip
// form.
func formatFloat(x float64) string {
	if x == float64(int64(x)) {
		return strconv.FormatInt(int64(x), 10)
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// jsonHistogram is the JSON exposition shape of one histogram series.
type jsonHistogram struct {
	Bounds     []float64 `json:"bounds"`
	Cumulative []int64   `json:"cumulative"`
	Count      int64     `json:"count"`
	Sum        float64   `json:"sum"`
}

// jsonTopK is the JSON exposition shape of one top-K series: the full
// ranked entries, keys and exemplars included (the detail the bounded
// Prometheus rows deliberately omit).
type jsonTopK struct {
	Kind    string      `json:"kind"` // always "topk"
	N       int64       `json:"n"`
	Entries []TopKEntry `json:"entries"`
}

// jsonSketch is the JSON exposition shape of one quantile-sketch series.
// Quantiles maps formatted quantile → estimate; Exemplars carries the trace
// exemplar nearest each exposed quantile (omitted when never sampled). NaN
// min/max (empty sketch) serialise as null.
type jsonSketch struct {
	Kind      string                     `json:"kind"` // always "sketch"
	Count     int64                      `json:"count"`
	Sum       float64                    `json:"sum"`
	Min       *float64                   `json:"min"`
	Max       *float64                   `json:"max"`
	Quantiles map[string]float64         `json:"quantiles"`
	Exemplars map[string]sketch.Exemplar `json:"exemplars,omitempty"`
}

func jsonSketchOf(s SeriesSnapshot) jsonSketch {
	out := jsonSketch{
		Kind:      "sketch",
		Count:     s.SketchCount,
		Sum:       s.SketchSum,
		Quantiles: make(map[string]float64, len(s.SketchQ)),
	}
	if !math.IsNaN(s.SketchMin) {
		min, max := s.SketchMin, s.SketchMax
		out.Min, out.Max = &min, &max
	}
	for i, q := range SketchQuantiles {
		if i >= len(s.SketchQ) || math.IsNaN(s.SketchQ[i]) {
			continue
		}
		out.Quantiles[formatFloat(q)] = s.SketchQ[i]
		if i < len(s.SketchExemplars) && s.SketchExemplars[i].Valid() {
			if out.Exemplars == nil {
				out.Exemplars = make(map[string]sketch.Exemplar)
			}
			out.Exemplars[formatFloat(q)] = s.SketchExemplars[i]
		}
	}
	return out
}

// WriteJSON renders the registry as a flat expvar-style JSON object keyed by
// the canonical series string (name{labels}); counters and gauges map to
// numbers, histograms to {bounds, cumulative, count, sum} objects. Keys are
// emitted in sorted order.
func (r *Registry) WriteJSON(w io.Writer) error {
	snaps := r.Snapshot()
	out := make(map[string]any, len(snaps))
	for _, s := range snaps {
		key := s.Name + s.LabelString()
		switch s.Kind {
		case "histogram":
			out[key] = jsonHistogram{
				Bounds:     s.HistBounds,
				Cumulative: s.HistCumulative,
				Count:      s.HistCount,
				Sum:        s.HistSum,
			}
		case "topk":
			out[key] = jsonTopK{Kind: "topk", N: s.TopKN, Entries: s.TopK}
		case "sketch":
			out[key] = jsonSketchOf(s)
		default:
			out[key] = s.Value
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// encoding/json sorts map keys, keeping the exposition deterministic.
	return enc.Encode(out)
}
