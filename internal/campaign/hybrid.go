package campaign

import (
	"nilihype/internal/inject"
)

// MixedFaultCampaign runs the template campaign once per fault type over
// the same seed set and merges the shards into a single summary — the
// workload for the hybrid-escalation experiment, which compares mechanisms
// across the paper's full fault mix rather than a single fault type. Each
// fault type uses seeds SeedBase+1..SeedBase+Runs, so two mechanisms given
// the same template face identical fault scenarios.
func MixedFaultCampaign(tmpl Campaign, faults []inject.FaultType) Summary {
	total := Summary{FailReasons: make(map[string]int), SuccessByAttempt: make(map[int]int)}
	for _, f := range faults {
		c := tmpl
		c.Base.Fault = f
		total.Merge(c.Execute())
	}
	total.Config = tmpl.Base
	return total
}
