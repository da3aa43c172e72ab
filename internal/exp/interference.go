package exp

import (
	"fmt"
	"strings"
	"time"

	"sae/internal/core"
	"sae/internal/engine"
	"sae/internal/engine/job"
	"sae/internal/workloads"
)

// InterferenceRow is one (policy, environment) cell.
type InterferenceRow struct {
	Policy       string
	Interference bool
	Seconds      float64
	// VictimThreads is the final per-stage thread choice on the executor
	// whose node suffers the background load.
	VictimThreads []int
}

// InterferenceResult is the dynamic-environment extension experiment: a
// co-located tenant starts hammering one node's disk mid-run (the cloud
// scenario of limitation L4 and the paper's outlook). The paper's
// per-stage-frozen controller cannot react after its freeze; the re-probing
// variant re-opens the hill climb and adapts.
type InterferenceResult struct {
	Rows []InterferenceRow
}

// Interference runs a long single-stage ingest job (where the paper's
// freeze-until-stage-end actually goes stale — multi-stage jobs re-adapt at
// every stage boundary anyway) under the stock, dynamic, and re-probing
// dynamic policies, with and without mid-run background disk load on node 0.
func Interference(s Setup) (*InterferenceResult, error) {
	policies := []job.Policy{
		core.Default{},
		core.DefaultDynamic(),
		core.Dynamic{Cmin: 2, ReprobeTasks: 20},
	}
	rows, err := Each(s, 2*len(policies), func(s Setup, i int) (InterferenceRow, error) {
		noisy, pol := i >= len(policies), policies[i%len(policies)]
		var onSetup func(*engine.Engine)
		if noisy {
			onSetup = func(e *engine.Engine) {
				// The tenant arrives two (virtual) minutes in and
				// keeps 12 read streams on node 0's disk.
				e.InjectDiskInterference(0, 2*time.Minute, 12, 0)
			}
		}
		rep, err := s.Run(longIngest(s.workloadConfig()), pol, onSetup)
		if err != nil {
			return InterferenceRow{}, fmt.Errorf("interference %s: %w", pol.Name(), err)
		}
		row := InterferenceRow{
			Policy:       pol.Name(),
			Interference: noisy,
			Seconds:      rep.Runtime.Seconds(),
		}
		for _, st := range rep.Stages {
			row.VictimThreads = append(row.VictimThreads, st.Execs[0].FinalThreads)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &InterferenceResult{Rows: rows}, nil
}

// longIngest is a single-stage 150 GiB scan: long enough that a mid-stage
// environment change makes the frozen choice stale.
func longIngest(cfg workloads.Config) *workloads.Spec {
	scan := workloads.Scan(cfg)
	stage := scan.Job.Stages[0]
	stage.ShuffleWriteBytes = 0
	stage.Name = "long-ingest"
	return &workloads.Spec{
		Name:       "long-ingest",
		InputBytes: scan.InputBytes * 16,
		Inputs:     []engine.Input{{Name: stage.InputFile, Size: scan.Inputs[0].Size * 16}},
		BlockSize:  scan.BlockSize * 4,
		Job:        &job.JobSpec{Name: "long-ingest", Stages: []*job.StageSpec{stage}},
	}
}

// Get returns the row for (policy, interference).
func (r *InterferenceResult) Get(policy string, interference bool) (InterferenceRow, bool) {
	for _, row := range r.Rows {
		if row.Policy == policy && row.Interference == interference {
			return row, true
		}
	}
	return InterferenceRow{}, false
}

func (r *InterferenceResult) String() string {
	var b strings.Builder
	b.WriteString("Interference — co-located tenant on node 0's disk (L4 / outlook extension)\n")
	for _, row := range r.Rows {
		env := "quiet cluster"
		if row.Interference {
			env = "noisy node 0 "
		}
		fmt.Fprintf(&b, "  %-16s %s %9.1fs  victim threads/stage %v\n",
			row.Policy, env, row.Seconds, row.VictimThreads)
	}
	return b.String()
}
