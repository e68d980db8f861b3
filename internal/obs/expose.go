package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, one HELP and TYPE line
// each, series sorted by label set. Histograms render cumulative buckets
// with an explicit +Inf bucket plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if err := f.writePrometheus(w); err != nil {
			return err
		}
	}
	return nil
}

func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *family) sortedSeries() []*series {
	f.mu.Lock()
	ss := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		ss = append(ss, s)
	}
	f.mu.Unlock()
	sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
	return ss
}

func (f *family) writePrometheus(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
		return err
	}
	for _, s := range f.sortedSeries() {
		switch f.kind {
		case kindCounter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.c.Value()); err != nil {
				return err
			}
		case kindGauge:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(s.g.Value())); err != nil {
				return err
			}
		case kindGaugeFunc:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(s.gf())); err != nil {
				return err
			}
		case kindHistogram:
			if err := writeHistogram(w, f.name, s.labels, s.h.Snapshot()); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name, labels string, snap HistSnapshot) error {
	cum := int64(0)
	for i, le := range snap.Bounds {
		cum += snap.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, withLE(labels, strconv.FormatFloat(le, 'g', -1, 64)), cum); err != nil {
			return err
		}
	}
	cum += snap.Counts[len(snap.Bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(labels, "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatValue(snap.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, snap.Count)
	return err
}

// withLE splices the le label into a rendered label suffix.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(help string) string {
	out := make([]byte, 0, len(help))
	for i := 0; i < len(help); i++ {
		switch help[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, help[i])
		}
	}
	return string(out)
}

// --- JSON dump (/debug/obs) -------------------------------------------

// SeriesDump is one series in a registry dump.
type SeriesDump struct {
	Labels string `json:"labels,omitempty"`
	// Value is set for counters and gauges.
	Value *float64 `json:"value,omitempty"`
	// Histogram fields.
	Sum     *float64  `json:"sum,omitempty"`
	Count   *int64    `json:"count,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
}

// FamilyDump is one metric family in a registry dump.
type FamilyDump struct {
	Name   string       `json:"name"`
	Help   string       `json:"help"`
	Type   string       `json:"type"`
	Series []SeriesDump `json:"series"`
}

// Snapshot returns the full registry state, families and series sorted.
func (r *Registry) Snapshot() []FamilyDump {
	fams := r.sortedFamilies()
	out := make([]FamilyDump, 0, len(fams))
	for _, f := range fams {
		fd := FamilyDump{Name: f.name, Help: f.help, Type: f.kind.String()}
		for _, s := range f.sortedSeries() {
			sd := SeriesDump{Labels: s.labels}
			switch f.kind {
			case kindCounter:
				v := float64(s.c.Value())
				sd.Value = &v
			case kindGauge:
				v := s.g.Value()
				sd.Value = &v
			case kindGaugeFunc:
				v := s.gf()
				sd.Value = &v
			case kindHistogram:
				snap := s.h.Snapshot()
				sd.Sum, sd.Count = &snap.Sum, &snap.Count
				sd.Bounds, sd.Buckets = snap.Bounds, snap.Counts
			}
			fd.Series = append(fd.Series, sd)
		}
		out = append(out, fd)
	}
	return out
}
