package tsdb

import (
	"math"
	"sort"

	"autoloop/internal/telemetry"
)

// Agg selects the aggregation a rollup rule or a step query applies to each
// bucket.
type Agg int

// Supported aggregations.
const (
	AggMean Agg = iota
	AggSum
	AggMin
	AggMax
	AggCount
	AggLast
	AggP50
	AggP95
	AggP99
	AggStddev
)

// String implements fmt.Stringer.
func (a Agg) String() string {
	switch a {
	case AggMean:
		return "mean"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggCount:
		return "count"
	case AggLast:
		return "last"
	case AggP50:
		return "p50"
	case AggP95:
		return "p95"
	case AggP99:
		return "p99"
	case AggStddev:
		return "stddev"
	}
	return "unknown"
}

// ParseAgg is the inverse of String: it resolves an aggregation by its wire
// name ("mean", "p95", ...), reporting ok=false for unknown names.
func ParseAgg(name string) (Agg, bool) {
	for a := AggMean; a <= AggStddev; a++ {
		if a.String() == name {
			return a, true
		}
	}
	return 0, false
}

// apply reduces values (may be reordered in place for percentiles).
func (a Agg) apply(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	switch a {
	case AggMean:
		return mean(values)
	case AggSum:
		s := 0.0
		for _, v := range values {
			s += v
		}
		return s
	case AggMin:
		m := values[0]
		for _, v := range values[1:] {
			if v < m {
				m = v
			}
		}
		return m
	case AggMax:
		m := values[0]
		for _, v := range values[1:] {
			if v > m {
				m = v
			}
		}
		return m
	case AggCount:
		return float64(len(values))
	case AggLast:
		return values[len(values)-1]
	case AggP50:
		return Percentile(values, 0.50)
	case AggP95:
		return Percentile(values, 0.95)
	case AggP99:
		return Percentile(values, 0.99)
	case AggStddev:
		return stddev(values)
	}
	return math.NaN()
}

func mean(values []float64) float64 {
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

func stddev(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	m := mean(values)
	s := 0.0
	for _, v := range values {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(values)-1))
}

// Percentile returns the q-quantile (0 <= q <= 1) of values using linear
// interpolation between order statistics. It copies the input, so the caller's
// slice is left untouched. An empty input yields NaN.
func Percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Rate estimates the per-second rate of change of a monotonically increasing
// counter series over its full range, tolerating equal endpoints by returning
// zero. It is used to turn progress-marker counters into progress rates.
func Rate(s telemetry.Series) float64 {
	n := len(s.Samples)
	if n < 2 {
		return 0
	}
	first, last := s.Samples[0], s.Samples[n-1]
	dt := last.Time - first.Time
	if dt <= 0 {
		return 0
	}
	return (last.Value - first.Value) / dt.Seconds()
}
