package main

import (
	"encoding/json"
	"flag"
	"io"
	"time"

	"nilihype/internal/campaign"
	"nilihype/internal/inject"
	"nilihype/internal/traffic"
)

const reportHelp = `hyperrecover report emits the machine-readable fault-class ×
ladder recovery matrix as one JSON document: per-class recovery stats and
root causes for each escalation ladder, plus the aggregated end-user SLO
block, sized by -runs and -users.
`

func reportCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	rf := (&runFlags{setup: "3appvm", workload: "unixbench", logging: true, duration: 2 * time.Second,
		runs: 100, users: 100_000}).
		register(fs, "runs", "users")

	return func(stdout, _ io.Writer) error {
		c, err := rf.campaign()
		if err != nil {
			return err
		}
		return jsonReport(stdout, c)
	}
}

// ladderJSON is one escalation ladder's row of the JSON report.
type ladderJSON struct {
	Runs         int                                  `json:"runs"`
	FaultClasses map[string]*campaign.FaultClassStats `json:"fault_classes"`
	RootCauses   map[string]int                       `json:"root_causes,omitempty"`
	SLORuns      int                                  `json:"slo_runs,omitempty"`
	SLO          *traffic.SLO                         `json:"slo,omitempty"`
}

// jsonReport runs the fault-class × ladder matrix with the end-user
// traffic engine armed and emits the per-class recovery stats, the
// forensic root-cause breakdown and the aggregate SLO block as one JSON
// document.
func jsonReport(w io.Writer, tmpl campaign.Campaign) error {
	sums := map[string]*campaign.Summary{}
	faultMatrix(tmpl, func(ladder string, _ inject.FaultType, s campaign.Summary) {
		if sums[ladder] == nil {
			sums[ladder] = &s
		} else {
			sums[ladder].Merge(s)
		}
	})
	out := map[string]*ladderJSON{}
	for ladder, sum := range sums {
		row := &ladderJSON{
			Runs:         sum.Runs,
			FaultClasses: sum.FaultClasses,
			RootCauses:   sum.RootCauses,
			SLORuns:      sum.SLORuns,
		}
		if sum.SLORuns > 0 {
			row.SLO = &sum.SLO
		}
		out[ladder] = row
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
