package telemetry

import "time"

// SeriesVisitor receives one matching series during QueryVisit. The samples
// slice aliases store memory and is valid only for the duration of the call
// (the store may hold internal locks while visiting); labels alias the
// store's canonical label set and must not be mutated. Copy anything that
// must outlive the visit.
type SeriesVisitor func(labels Labels, samples []Sample)

// Querier is the read surface of the telemetry store: everything a loop's
// Monitor/Analyze phases need from the Knowledge raw-data plane. The cases
// and analytics helpers depend on this interface rather than on a concrete
// database, so a production deployment can put DCDB/Prometheus/Examon behind
// the same calls (paper question (ii)); *tsdb.DB is the in-tree
// implementation.
//
// Query/QueryOne/Latest materialize independent copies — convenient for
// one-shot reporting, but they allocate per call. QueryVisit, WindowInto and
// LatestInto hand out the same data through a callback or a caller-owned
// buffer with zero steady-state allocations; tick-time readers (detector
// polls, Monitor phases) use them, and so does the one executor of the wire
// query vocabulary (tsdb.Execute), which every transport — bus service, HTTP
// gateway, cluster scatter-gather — answers through.
type Querier interface {
	// Query returns every series of name whose labels match the matcher,
	// restricted to samples in [from, to], sorted by label key.
	Query(name string, matcher Labels, from, to time.Duration) []Series
	// QueryOne is Query for callers expecting exactly one match.
	QueryOne(name string, matcher Labels, from, to time.Duration) (Series, bool)
	// Latest returns the newest point of every matching series.
	Latest(name string, matcher Labels) []Point
	// LatestValue returns the newest value of the last matching series in
	// label-key order, allocation-free.
	LatestValue(name string, matcher Labels) (float64, bool)
	// QueryVisit streams every series Query would return to visit, without
	// materializing copies: one call per matching series with at least one
	// sample in [from, to]. Visit order is unspecified (unlike Query's
	// label-key order); callers that need deterministic concatenation use
	// WindowInto.
	QueryVisit(name string, matcher Labels, from, to time.Duration, visit SeriesVisitor)
	// WindowInto appends the values of every matching series in [from, to]
	// to buf — concatenated in label-key order, exactly the values Query
	// would carry — and returns the extended buffer. With a warm buffer it
	// performs no allocations.
	WindowInto(buf []float64, name string, matcher Labels, from, to time.Duration) []float64
	// LatestInto appends the newest point of every matching series to buf in
	// label-key order and returns the extended buffer. Unlike Latest, the
	// appended points' Labels alias the store's canonical (immutable) label
	// sets instead of cloning them; treat them as read-only.
	LatestInto(buf []Point, name string, matcher Labels) []Point
}

// Store combines the ingest and query halves of a telemetry database — what
// a Pipeline's sink offers when it is a full TSDB rather than a plain sink.
type Store interface {
	Sink
	Querier
}
