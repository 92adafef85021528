package analytics

// Signature is a behavioral fingerprint of an application run: a named
// vector of characteristics (mean iteration time, I/O fraction, utilization,
// ...). The paper's Analyze phase requires "a strategy ... to map the
// application to a set of measurements of behavioral characteristics to
// enable comparison against past and future runs"; the Scheduler case
// records one per completed run in the knowledge base.
type Signature map[string]float64
