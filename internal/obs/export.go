package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, one line per series, and
// cumulative le-labeled buckets plus _sum/_count for histograms.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, fam := range r.Snapshot() {
		if fam.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam.Name, escapeHelp(fam.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.Name, fam.Kind); err != nil {
			return err
		}
		for _, s := range fam.Series {
			if err := writeSeries(w, fam, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, fam FamilySnapshot, s SeriesSnapshot) error {
	switch fam.Kind {
	case KindCounter, KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", fam.Name, formatLabels(s.Labels), formatValue(s.Value))
		return err
	case KindHistogram:
		for i, ub := range fam.Buckets {
			le := append(append([]Label(nil), s.Labels...), L("le", formatValue(ub)))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", fam.Name, formatLabels(le),
				s.BucketCounts[i], formatExemplar(s.Exemplars, i)); err != nil {
				return err
			}
		}
		inf := append(append([]Label(nil), s.Labels...), L("le", "+Inf"))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", fam.Name, formatLabels(inf),
			s.Count, formatExemplar(s.Exemplars, len(fam.Buckets))); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fam.Name, formatLabels(s.Labels), formatValue(s.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", fam.Name, formatLabels(s.Labels), s.Count)
		return err
	}
	return fmt.Errorf("obs: unknown metric kind %v", fam.Kind)
}

// formatExemplar renders the OpenMetrics exemplar suffix for one bucket
// line (` # {trace_id="<16 hex>"} <value>`) or the empty string when the
// slot is empty or absent.
func formatExemplar(exemplars []Exemplar, slot int) string {
	if slot >= len(exemplars) || exemplars[slot].TraceID == 0 {
		return ""
	}
	e := exemplars[slot]
	return fmt.Sprintf(` # {trace_id="%s"} %s`, IDString(e.TraceID), formatValue(e.Value))
}

// formatLabels renders {k="v",...} or the empty string with no labels.
func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a float the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// metricJSON is the JSONL wire form of one metric series.
type metricJSON struct {
	Type      string            `json:"type"`
	Name      string            `json:"name"`
	Kind      string            `json:"kind"`
	Labels    map[string]string `json:"labels,omitempty"`
	Value     float64           `json:"value,omitempty"`
	Count     uint64            `json:"count,omitempty"`
	Sum       float64           `json:"sum,omitempty"`
	AtSeconds float64           `json:"at_seconds"`
}

// WriteMetricsJSONL writes one JSON object per series, stamped with the
// registry clock's current virtual time, the clock the trace exporter's
// start_seconds/end_seconds read.
func (r *Registry) WriteMetricsJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	at := r.now().Seconds()
	enc := json.NewEncoder(w)
	for _, fam := range r.Snapshot() {
		for _, s := range fam.Series {
			m := metricJSON{
				Type:      "metric",
				Name:      fam.Name,
				Kind:      fam.Kind.String(),
				AtSeconds: at,
			}
			if len(s.Labels) > 0 {
				m.Labels = make(map[string]string, len(s.Labels))
				for _, l := range s.Labels {
					m.Labels[l.Key] = l.Value
				}
			}
			if fam.Kind == KindHistogram {
				m.Count = s.Count
				m.Sum = s.Sum
			} else {
				m.Value = s.Value
			}
			if err := enc.Encode(m); err != nil {
				return err
			}
		}
	}
	return nil
}
