package configdrift_test

import (
	"testing"

	"tcpburst/internal/analysis"
	"tcpburst/internal/analysis/analysistest"
	"tcpburst/internal/analysis/configdrift"
	"tcpburst/internal/analysis/load"
)

// runOver runs the analyzer on one fixture package and returns raw
// diagnostics (for scenarios whose fixtures carry no want comments).
func runOver(t *testing.T, root, importPath string) []analysis.Diagnostic {
	t.Helper()
	pkg, err := load.Fixture(root, importPath)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var diags []analysis.Diagnostic
	pass := analysis.NewPass(configdrift.Analyzer, pkg.Fset, pkg.Files, pkg.Types, pkg.Info,
		func(d analysis.Diagnostic) { diags = append(diags, d) })
	if _, err := configdrift.Analyzer.Run(pass); err != nil {
		t.Fatalf("analyzer: %v", err)
	}
	return diags
}

func TestConfigFieldAndFlagFixtures(t *testing.T) {
	analysistest.Run(t, configdrift.Analyzer, "testdata/src",
		"tcpburst/internal/core",
		"tcpburst/cmd/burstsim",
		"tcpburst/cmd/internal/cli",
	)
}

// withLock swaps the embedded schema lock for one scenario.
func withLock(t *testing.T, lock string, fn func()) {
	t.Helper()
	saved := configdrift.LockJSON
	defer func() { configdrift.LockJSON = saved }()
	configdrift.LockJSON = []byte(lock)
	fn()
}

// The drift fixture's Summary gained COV while version and kind still
// match the lock: the analyzer must demand a bump.
func TestSchemaDriftWithoutBump(t *testing.T) {
	withLock(t, `{
		"schema_version": 3,
		"result_cache_kind": "result/v9/",
		"summary": ["SchemaVersion int `+"`json:\\\"schemaVersion\\\"`"+`"]
	}`, func() {
		analysistest.Run(t, configdrift.Analyzer, "testdata/drift", "tcpburst/internal/core")
	})
}

// The stale fixture bumped the version alongside the field change, but the
// lock still pins the old surface: the analyzer must ask for -update-lock.
func TestSchemaLockStaleAfterBump(t *testing.T) {
	withLock(t, `{
		"schema_version": 2,
		"result_cache_kind": "result/v9/",
		"summary": ["SchemaVersion int `+"`json:\\\"schemaVersion\\\"`"+`"]
	}`, func() {
		analysistest.Run(t, configdrift.Analyzer, "testdata/stale", "tcpburst/internal/core")
	})
}

// A lock exactly matching the clean fixture's surface, including the
// fields of the struct its Summary.Groups holds, must be clean; reuse
// Regenerate-shaped JSON to prove the match path reports nothing.
func TestSchemaLockClean(t *testing.T) {
	withLock(t, `{
		"schema_version": 3,
		"result_cache_kind": "result/v9/",
		"summary": [
			"SchemaVersion int `+"`json:\\\"schemaVersion\\\"`"+`",
			"COV float64 `+"`json:\\\"cov\\\"`"+`",
			"Groups []tcpburst/internal/core.Group `+"`json:\\\"groups,omitempty\\\"`"+`",
			"Groups.Clients int `+"`json:\\\"clients\\\"`"+`"
		]
	}`, func() {
		// The stale fixture has want comments; a clean run over the drift
		// tree would fail them. Load it directly instead.
		findings := runOver(t, "testdata/clean", "tcpburst/internal/core")
		if len(findings) != 0 {
			t.Errorf("clean fixture produced findings: %v", findings)
		}
	})
}
