package modecheck_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/modecheck"
)

func TestBasic(t *testing.T) {
	analysistest.Run(t, modecheck.Analyzer, "modecheck/basic")
}

func TestAsync(t *testing.T) {
	analysistest.Run(t, modecheck.Analyzer, "modecheck/async")
}
