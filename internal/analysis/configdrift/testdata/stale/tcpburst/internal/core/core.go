// Fixture for configdrift rule 2, bumped-but-unpinned variant: the field
// set and version moved together (a legitimate schema change) but the lock
// still pins the old surface, so it must be regenerated.
package core

const SummarySchemaVersion = 3

const resultCacheKindPrefix = "result/v9/"

type Summary struct { // want `schema lock is stale`
	SchemaVersion int     `json:"schemaVersion"`
	COV           float64 `json:"cov"`
}

var _ = resultCacheKindPrefix
