package main

import (
	"strings"
	"testing"

	"bcc/internal/coding"
)

// TestSchemeUsageListsEveryScheme: the -scheme help names exactly the
// registered gradient codes, so a newly registered scheme shows up in it.
func TestSchemeUsageListsEveryScheme(t *testing.T) {
	usage := schemeUsage()
	listed := strings.Split(strings.TrimPrefix(usage, "gradient code: "), "|")
	names := coding.Names()
	if len(listed) != len(names) {
		t.Fatalf("-scheme help %q lists %d schemes, the registry has %d: %v", usage, len(listed), len(names), names)
	}
	for i, name := range names {
		if listed[i] != name {
			t.Fatalf("-scheme help %q lacks registered scheme %q", usage, name)
		}
	}
	for _, name := range []string{"bccmulti", "bccapprox", "nested"} {
		if !strings.Contains(usage, name) {
			t.Fatalf("-scheme help %q lacks %q", usage, name)
		}
	}
}
