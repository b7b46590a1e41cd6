package configdrift

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"go/types"
)

// LockJSON is the embedded schema lock. Embedding (rather than reading the
// file at run time) keeps the analyzer honest in go vet -vettool mode,
// where the working directory is not the repo root. Tests may swap it to
// exercise drift scenarios.
//
//go:embed schema_lock.json
var LockJSON []byte

// EmbeddedLock parses the pinned lock.
func EmbeddedLock() (*Lock, error) {
	var l Lock
	if err := json.Unmarshal(LockJSON, &l); err != nil {
		return nil, err
	}
	return &l, nil
}

// Regenerate computes fresh lock bytes for a type-checked core package, as
// cmd/burstlint -update-lock writes them. It refuses to repin a changed
// field set that no version or cache-kind bump accompanies — regeneration
// records a reviewed schema change, it must not be the way one sneaks by.
func Regenerate(pkg *types.Package) ([]byte, error) {
	cur, err := Current(pkg)
	if err != nil {
		return nil, err
	}
	old, err := EmbeddedLock()
	if err != nil {
		return nil, fmt.Errorf("parsing embedded schema_lock.json: %w", err)
	}
	fieldsChanged := !sliceEq(cur.Summary, old.Summary)
	bumped := cur.SchemaVersion != old.SchemaVersion || cur.ResultCacheKind != old.ResultCacheKind
	if fieldsChanged && !bumped {
		return nil, fmt.Errorf("refusing to repin: Summary fields changed but neither SummarySchemaVersion nor the cache kind was bumped")
	}
	data, err := json.MarshalIndent(cur, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
