package exp

import (
	"fmt"
	"os"
	"testing"

	"sae/internal/core"
	"sae/internal/workloads"
)

// TestCalibrationReport prints full-scale sweep and policy-comparison
// numbers for manual calibration against the paper's figures. It only runs
// when SAE_CALIBRATE=1 to keep normal test runs fast.
func TestCalibrationReport(t *testing.T) {
	if os.Getenv("SAE_CALIBRATE") != "1" {
		t.Skip("set SAE_CALIBRATE=1 to print the calibration report")
	}
	s := Default()
	if os.Getenv("SAE_CALIBRATE_SSD") == "1" {
		s = s.WithSSD()
	}
	if os.Getenv("SAE_CALIBRATE_ORACLE") == "1" {
		// Oracle sweep: pin EVERY stage (including shuffle stages the
		// static solution cannot touch) to one thread count.
		for _, mk := range []func(workloads.Config) *workloads.Spec{
			workloads.Terasort, workloads.PageRank, workloads.Aggregation, workloads.Join,
		} {
			w := mk(s.workloadConfig())
			fmt.Printf("%s — oracle all-stage sweep\n", w.Name)
			for _, th := range SweepThreads {
				pins := map[int]int{}
				for i := range w.Job.Stages {
					pins[i] = th
				}
				rep, err := s.Run(mk(s.workloadConfig()), core.BestFit{Threads: pins}, nil)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Printf("  %2d:", th)
				for _, st := range rep.Stages {
					fmt.Printf(" %8.1f", st.Duration().Seconds())
				}
				fmt.Printf("  total %8.1f\n", rep.Runtime.Seconds())
			}
		}
		return
	}
	for _, mk := range []func(workloads.Config) *workloads.Spec{
		workloads.Terasort, workloads.PageRank, workloads.Aggregation, workloads.Join,
	} {
		sweep, err := StaticSweep(s, mk)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Println(sweep)
		rep, err := s.Run(mk(s.workloadConfig()), core.DefaultDynamic(), nil)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Print(rep)
		if os.Getenv("SAE_CALIBRATE_DECISIONS") == "1" {
			for exec, ds := range rep.Decisions {
				for _, d := range ds {
					fmt.Printf("    exec%d s%d @%6.1fs → %2d threads: %s {%s}\n",
						exec, d.Stage, d.At.Seconds(), d.Threads, d.Reason, d.Interval)
				}
			}
		}
		fmt.Printf("  reductions: bestfit %.1f%%  dynamic %.1f%%\n\n",
			Reduction(sweep.Default, sweep.BestFit), Reduction(sweep.Default, rep))
		fmt.Printf("  fig1 (default): ")
		for _, st := range sweep.Default.Stages {
			fmt.Printf("[s%d cpu=%.0f%% iowait=%.0f%%] ", st.ID, st.CPUPercent, st.IowaitPercent)
		}
		fmt.Println()
		fmt.Println()
	}
}
