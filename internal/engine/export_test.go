package engine

// What tests outside the package (those that need internal/invariant, which
// imports this one) share with the ones inside.
var (
	TwoStageJob = twoStageJob
	GrayOptions = grayOptions
	RaceEnabled = raceEnabled
)

// Zombies reports how many completions the executor dropped as an earlier
// incarnation's.
func (ex *Executor) Zombies() int { return ex.zombies }

// StopRecycling makes e allocate every control-plane message and fetch plan
// afresh, as a sharded engine does: the reference a recycling run is held to.
func (e *Engine) StopRecycling() { e.recycle = false }

// FreeMessages reports how many launch, completion and heartbeat messages sit
// in e's free lists.
func (e *Engine) FreeMessages() [3]int {
	return [3]int{len(e.launches.free), len(e.dones.free), len(e.beats.free)}
}
