// Fixture for configdrift rule 2, happy path: the lock supplied by the
// test pins exactly this surface, so the analyzer must stay silent.
package core

const SummarySchemaVersion = 3

const resultCacheKindPrefix = "result/v9/"

type Summary struct {
	SchemaVersion int     `json:"schemaVersion"`
	COV           float64 `json:"cov"`
	Groups        []Group `json:"groups,omitempty"`
}

// Group is pinned field by field under Summary.Groups.
type Group struct {
	Clients int `json:"clients"`
}

var _ = resultCacheKindPrefix
