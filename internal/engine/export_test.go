package engine

import (
	"reflect"
	"runtime"
)

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
	putSpares(e.spares)
	e.recycle = false
	e.UseSpares(new(runSpares))
}

// Spares returns the spares e runs on. Wait gives them back for the next
// engine to take, so a test hands them to another engine only once the slot
// and the pool are drained.
func (e *Engine) Spares() *runSpares { return e.spares }

// UseSpares, called from Options.OnSetup, makes e run on sp and drops the
// spares NewEngine took.
func (e *Engine) UseSpares(sp *runSpares) { e.spares, e.shuffle.spares = sp, sp }

// DrainSpares empties the slot and the pool of spares: sync.Pool drops what
// it holds within two collections.
func DrainSpares() {
	spareSlot.Store(nil)
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

// NewEngineOn is NewEngine on the spares sp, a set of its own if sp is nil.
// NewEngine takes the spares' kernel events, device tables and mailbox arrays
// while it assembles the machine, before OnSetup could swap them, so a test
// hands a machine over here.
func NewEngineOn(opts Options, sp *runSpares) (*Engine, error) {
	if sp == nil {
		sp = new(runSpares)
	}
	return newEngine(opts, sp)
}

// MachineHeld reports whether sp holds, for the next run, the kernel's event
// storage, device stream tables, the driver's mailbox arrays and executor
// mailbox arrays.
func (sp *runSpares) MachineHeld() [4]bool {
	held := [4]bool{holds(reflect.ValueOf(sp.kernel)), false, holds(reflect.ValueOf(sp.toDriver))}
	for _, ns := range sp.nodes {
		held[1] = held[1] || holds(reflect.ValueOf(ns.devices))
		held[3] = held[3] || holds(reflect.ValueOf(ns.inbox))
	}
	return held
}

// holds reports whether v reaches an array with room or a free list.
func holds(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Pointer:
		return !v.IsNil()
	case reflect.Struct:
		for i := range v.NumField() {
			if holds(v.Field(i)) {
				return true
			}
		}
	case reflect.Slice:
		if v.Len() == 0 {
			return v.Cap() > 0
		}
		for i := range v.Len() {
			if holds(v.Index(i)) {
				return true
			}
		}
	default:
		return !v.IsZero()
	}
	return false
}
