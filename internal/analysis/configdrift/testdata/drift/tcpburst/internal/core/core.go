// Fixture for configdrift rule 2: the Summary field set differs from the
// pinned lock (COV is new) while SummarySchemaVersion and the cache kind
// match it — the un-bumped drift the analyzer must refuse.
package core

const SummarySchemaVersion = 3

const resultCacheKindPrefix = "result/v9/"

type Summary struct { // want `Summary fields changed without a SummarySchemaVersion or cache-kind bump`
	SchemaVersion int     `json:"schemaVersion"`
	COV           float64 `json:"cov"`
}

var _ = resultCacheKindPrefix
