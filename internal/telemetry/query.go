package telemetry

import "time"

// SeriesVisitor receives one matching series during QueryVisit; series
// arrive in label-key order (ascending Labels.Key()), as on every Querier
// read. The samples slice aliases store memory and is valid only for the
// duration of the call; labels alias the store's canonical label set and must
// not be mutated. Copy anything that must outlive the visit. The store holds
// its read lock while visiting, so a visitor must not call back into the
// store: a nested read lock behind a waiting writer deadlocks.
type SeriesVisitor func(labels Labels, samples []Sample)

// Querier is the read surface of the telemetry store: everything a loop's
// Monitor/Analyze phases need from the Knowledge raw-data plane. The cases
// and analytics helpers depend on this interface rather than on a concrete
// database, so a production deployment can put DCDB/Prometheus/Examon behind
// the same calls (paper question (ii)); *tsdb.DB is the in-tree
// implementation.
//
// The calls hand out data through a callback or a caller-owned buffer with
// zero steady-state allocations; tick-time readers (detector polls, Monitor
// phases) use them, and so does the one executor of the wire query
// vocabulary (tsdb.Execute), which every transport — bus service, HTTP
// gateway, cluster scatter-gather — answers through. *tsdb.DB also has
// WindowInto, a zero-copy window read outside this interface, and
// Query/QueryOne/Latest, which materialize independent copies for one-shot
// reporting.
type Querier interface {
	// LatestValue returns the newest value of the last matching series in
	// label-key order, allocation-free.
	LatestValue(name string, matcher Labels) (float64, bool)
	// QueryVisit calls visit once per series of name whose labels match the
	// matcher and that has at least one sample in [from, to], without
	// materializing copies, in label-key order.
	QueryVisit(name string, matcher Labels, from, to time.Duration, visit SeriesVisitor)
	// LatestInto appends the newest point of every matching series to buf in
	// label-key order and returns the extended buffer. The appended points'
	// Labels alias the store's canonical (immutable) label sets instead of
	// cloning them; treat them as read-only.
	LatestInto(buf []Point, name string, matcher Labels) []Point
}
