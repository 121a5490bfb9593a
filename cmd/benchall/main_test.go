package main

import (
	"strings"
	"testing"
)

// TestParseSkip: -skip accepts every experiment name in any case and
// refuses anything else, naming the valid set — a typo (or an experiment
// deleted since, like "groupcommit") must not run the full suite.
func TestParseSkip(t *testing.T) {
	skipped, err := parseSkip(" Table3, appendixB ,,rebalance")
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 3 || !skipped["table3"] || !skipped["appendixb"] || !skipped["rebalance"] {
		t.Fatalf("skipped = %v", skipped)
	}
	if all, err := parseSkip(strings.Join(experimentNames(), ",")); err != nil || len(all) != len(experiments) {
		t.Fatalf("skipping every experiment: %v, %v", all, err)
	}
	for _, bad := range []string{"nosuchthing", "groupcommit", "table3,tabel4"} {
		_, err := parseSkip(bad)
		if err == nil || !strings.Contains(err.Error(), "valid: table3,table4,") {
			t.Errorf("parseSkip(%q) = %v, want an error listing the valid names", bad, err)
		}
	}
}
