package scenario

import (
	"time"

	"sae/internal/chaos"
)

// scheduleGen builds one chaos plan given the policy's quiet runtime and
// the cluster seed. A nil plan is the quiet schedule.
type scheduleGen func(quiet time.Duration, seed int64) *chaos.Plan

// parseScheduleSpec parses one schedule entry of a chaos matrix (or a
// single run's chaos field). The grammar is chaos.Schedule's; percentage
// times ("crash1@45%") resolve against the policy's quiet runtime after the
// calibration run, and the resolved plan names are the schedule keys in
// every report.
func parseScheduleSpec(s string) (scheduleGen, error) {
	sched, err := chaos.ParseSchedule(s)
	return sched.Plan, err
}
