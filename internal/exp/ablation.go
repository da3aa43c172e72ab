package exp

import (
	"fmt"
	"strings"

	"sae/internal/core"
	"sae/internal/engine/job"
	"sae/internal/workloads"
)

// AblationRow is one (workload, variant) result.
type AblationRow struct {
	App     string
	Variant string
	Seconds float64
	// RedVsDefault is the runtime reduction relative to stock executors.
	RedVsDefault float64
}

// AblationResult quantifies the §5.2 design choices of the dynamic
// solution: ascending vs descending hill climb, the rollback step, the
// cmin=2 choice, and ζ = ε/µ vs disk utilization as the analyzer signal.
type AblationResult struct {
	Rows []AblationRow
}

// Ablation runs Terasort and PageRank under the dynamic controller and its
// ablated variants.
func Ablation(s Setup) (*AblationResult, error) {
	variants := []job.Policy{
		core.Default{},
		core.DefaultDynamic(),
		core.Dynamic(1, 0),
		core.Descending(),
		core.NoRollback(),
		core.UtilizationDriven(),
		core.AIMD(),
	}
	apps := []func(workloads.Config) *workloads.Spec{workloads.Terasort, workloads.PageRank}
	rows, err := Each(s, len(apps)*len(variants), func(s Setup, i int) (AblationRow, error) {
		w, pol := apps[i/len(variants)](s.workloadConfig()), variants[i%len(variants)]
		rep, err := s.Run(w, pol, nil)
		if err != nil {
			return AblationRow{}, fmt.Errorf("ablation %s/%s: %w", w.Name, pol.Name(), err)
		}
		return AblationRow{App: w.Name, Variant: pol.Name(), Seconds: rep.Runtime.Seconds()}, nil
	})
	if err != nil {
		return nil, err
	}
	var defaultSec float64
	for i, row := range rows {
		if row.Variant == "default" {
			defaultSec = row.Seconds
		}
		rows[i].RedVsDefault = 100 * (defaultSec - row.Seconds) / defaultSec
	}
	return &AblationResult{Rows: rows}, nil
}

// Get returns the row for (app, variant).
func (r *AblationResult) Get(app, variant string) (AblationRow, bool) {
	for _, row := range r.Rows {
		if row.App == app && row.Variant == variant {
			return row, true
		}
	}
	return AblationRow{}, false
}

func (r *AblationResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation — dynamic-controller design choices (§5.2)\n")
	app := ""
	for _, row := range r.Rows {
		if row.App != app {
			app = row.App
			fmt.Fprintf(&b, "  %s\n", app)
		}
		fmt.Fprintf(&b, "    %-22s %8.1fs  (red %+5.1f%% vs default)\n", row.Variant, row.Seconds, row.RedVsDefault)
	}
	return b.String()
}
