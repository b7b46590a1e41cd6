package burstlint_test

import (
	"os"
	"path/filepath"
	"testing"

	"tcpburst/internal/analysis/burstlint"
)

// TestRepositoryIsClean is the acceptance gate in test form: the full
// analyzer suite over the whole module must report nothing. Every waived
// site carries a //burst:<analyzer>-ok directive with a reason, so a failure
// here is either a fresh invariant violation or an undocumented waiver.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	findings, err := burstlint.Check("../../..", "./...")
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestCheckFlagsDirtyTree proves the suite actually bites: a scratch
// module impersonating the tcpburst module path, containing one float
// equality in the measurement package and a wall-clock read in a sim-tier
// package, must produce exactly those findings.
func TestCheckFlagsDirtyTree(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tcpburst\n\ngo 1.22\n")
	write("internal/stats/stats.go", `package stats

func Same(a, b float64) bool { return a == b }
`)
	// A sim-tier package without explicit hot-path roots: a scratch
	// internal/sim would also draw one hotpathalloc finding per sim root
	// it does not declare.
	write("internal/queue/queue.go", `package queue

import "time"

func Stamp() time.Time { return time.Now() }
`)

	findings, err := burstlint.Check(dir, "./...")
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	byAnalyzer := make(map[string]int)
	for _, f := range findings {
		byAnalyzer[f.Analyzer]++
		t.Logf("finding: %s", f)
	}
	if byAnalyzer["floateq"] != 1 {
		t.Errorf("floateq findings = %d, want 1", byAnalyzer["floateq"])
	}
	if byAnalyzer["nondeterminism"] != 1 {
		t.Errorf("nondeterminism findings = %d, want 1", byAnalyzer["nondeterminism"])
	}
	if len(findings) != 2 {
		t.Errorf("total findings = %d, want 2", len(findings))
	}
}

// TestByName covers the CLI's analyzer selection.
func TestByName(t *testing.T) {
	for _, name := range []string{
		"nondeterminism", "packetrelease", "telemetryhandle", "queuespec",
		"shardownership", "floateq", "hotpathalloc", "configdrift",
	} {
		if a := burstlint.ByName(name); a == nil || a.Name != name {
			t.Errorf("ByName(%q) = %v", name, a)
		}
	}
	if a := burstlint.ByName("nope"); a != nil {
		t.Errorf("ByName(nope) = %v, want nil", a)
	}
}

// TestReportCountsAndUnknownTokens drives the full suite over a scratch
// module containing one live violation, one justified waiver, and one
// misspelled directive token, and checks all three surface in the report.
func TestReportCountsAndUnknownTokens(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tcpburst\n\ngo 1.22\n")
	write("internal/stats/stats.go", `package stats

func Same(a, b float64) bool { return a == b }

func Zero(x float64) bool {
	return x == 0 //burst:floateq-ok assigned sentinel, never computed
}

func Typo(x float64) bool {
	return x == 1 //burst:floateq-okay misspelled token suppresses nothing
}
`)

	if z := burstlint.NewReport(); z.Diagnostics["hotpathalloc"] != 0 || z.Suppressions["configdrift"] != 0 {
		t.Fatalf("NewReport not pre-zeroed for suite analyzers: %+v", z)
	}
	findings, rep, err := burstlint.CheckReport(dir, "./...")
	if err != nil {
		t.Fatalf("CheckReport: %v", err)
	}
	byAnalyzer := make(map[string]int)
	for _, f := range findings {
		byAnalyzer[f.Analyzer]++
		t.Logf("finding: %s", f)
	}
	// Same() and the misspelled-token line are live; Zero() is waived.
	if byAnalyzer["floateq"] != 2 {
		t.Errorf("floateq findings = %d, want 2", byAnalyzer["floateq"])
	}
	if byAnalyzer["burstlint"] != 1 {
		t.Errorf("unknown-token findings = %d, want 1", byAnalyzer["burstlint"])
	}
	if rep.Diagnostics["floateq"] != 2 {
		t.Errorf("report diagnostics[floateq] = %d, want 2", rep.Diagnostics["floateq"])
	}
	if rep.Suppressions["floateq"] != 1 {
		t.Errorf("report suppressions[floateq] = %d, want 1", rep.Suppressions["floateq"])
	}
}
