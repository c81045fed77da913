// bfast-lint machine-checks the repo's correctness invariants with the
// analyzer suite in internal/analysis, as a standalone multichecker:
//
//	bfast-lint ./...              analyze the matching packages
//	bfast-lint -json ./...        same, findings as a JSON array for CI
//	bfast-lint -list              print the analyzers and their invariants
//
// Exit codes: 0 clean, 1 findings, 2 operational failure.
package main

import (
	"fmt"
	"os"

	"bfast/internal/analysis"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "-list" {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	asJSON := false
	patterns := args[:0:0]
	for _, a := range args {
		if a == "-json" || a == "--json" {
			asJSON = true
			continue
		}
		patterns = append(patterns, a)
	}
	os.Exit(analysis.RunStandalone(".", patterns, analysis.All(), os.Stdout, asJSON))
}
