package engine

import "runtime"

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
// afresh and keep its task-sized state to itself, as a sharded engine does:
// the reference a recycling run is held to. Called from Options.OnSetup,
// before anything has used them, it puts back the spares NewEngine took.
func (e *Engine) StopRecycling() {
	sparePool.Put(e.spares)
	e.recycle = false
	e.UseSpares(new(runSpares))
}

// Spares returns the spares e runs on. Wait gives them back to the pool, so a
// test hands them to another engine only once the pool is drained.
func (e *Engine) Spares() *runSpares { return e.spares }

// UseSpares, called from Options.OnSetup, makes e run on sp and drops the
// spares NewEngine took.
func (e *Engine) UseSpares(sp *runSpares) { e.spares, e.shuffle.spares = sp, sp }

// DrainSpares empties the pool of spares: sync.Pool drops what it holds
// within two collections.
func DrainSpares() {
	runtime.GC()
	runtime.GC()
}

// Held reports what sp keeps for the next run: launch, completion and
// heartbeat messages, task contexts, and task-table entries.
func (sp *runSpares) Held() [5]int {
	held := [5]int{len(sp.launches.free), len(sp.dones.free), len(sp.beats.free)}
	for tc := sp.contexts; tc != nil; tc = tc.free {
		held[3]++
	}
	for _, c := range sp.tasks.chunks {
		held[4] += len(c)
	}
	return held
}
