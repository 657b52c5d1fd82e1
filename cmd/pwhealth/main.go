// Command pwhealth checks the health-monitoring inputs and outputs of
// patchwork without running a campaign (a watched run is
// "patchwork -watch"). It has two modes:
//
// Validate mode parses alert-rule JSON files without running anything,
// so CI and operators can check rule changes cheaply:
//
//	pwhealth -validate rules/*.json
//
// Check-prom mode validates Prometheus text-exposition files (exported
// artifacts or saved /metrics scrapes) for syntax and histogram
// monotonicity:
//
//	pwhealth -check-prom out/metrics.prom
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/health"
	"repro/internal/obs"
)

func main() {
	validate := flag.Bool("validate", false, "parse-check the rule files given as arguments and exit")
	checkProm := flag.Bool("check-prom", false, "validate the Prometheus text-exposition files given as arguments and exit")
	flag.Parse()

	switch {
	case *validate:
		os.Exit(validateRules(flag.Args()))
	case *checkProm:
		os.Exit(checkPromFiles(flag.Args()))
	}
	fmt.Fprintln(os.Stderr, "pwhealth: pick -validate or -check-prom (patchwork -watch runs a watched campaign)")
	flag.Usage()
	os.Exit(2)
}

// validateRules parse-checks each file; with no arguments it checks the
// bundled default rule set. Returns the process exit code.
func validateRules(paths []string) int {
	if len(paths) == 0 {
		rs := health.DefaultRules()
		fmt.Printf("bundled defaults: %d signals, %d rules — ok\n", len(rs.Signals), len(rs.Rules))
		return 0
	}
	code := 0
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pwhealth: %v\n", err)
			code = 1
			continue
		}
		rs, err := health.ParseBytes(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pwhealth: %s: %v\n", p, err)
			code = 1
			continue
		}
		fmt.Printf("%s: %d signals, %d rules — ok\n", p, len(rs.Signals), len(rs.Rules))
	}
	return code
}

// checkPromFiles runs the exposition validator over each file. Returns
// the process exit code.
func checkPromFiles(paths []string) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "pwhealth: -check-prom needs at least one file")
		return 2
	}
	code := 0
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pwhealth: %v\n", err)
			code = 1
			continue
		}
		n, err := obs.ValidateExposition(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pwhealth: %s: %v\n", p, err)
			code = 1
			continue
		}
		fmt.Printf("%s: %d samples — ok\n", p, n)
	}
	return code
}
