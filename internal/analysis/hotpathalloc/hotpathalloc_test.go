package hotpathalloc_test

import (
	"testing"

	"tcpburst/internal/analysis/analysistest"
	"tcpburst/internal/analysis/hotpathalloc"
)

func TestFixtures(t *testing.T) {
	analysistest.Run(t, hotpathalloc.Analyzer, "testdata/src",
		"tcpburst/internal/queue",
		"tcpburst/internal/packet",
	)
}
