package engine

import (
	"io"
	"reflect"
	"slices"
	"testing"

	"sae/internal/conf"
	"sae/internal/dfs"
	"sae/internal/sim"
)

// What tests outside the package (those that need internal/invariant, which
// imports this one) share with the ones inside.
var (
	TwoStageJob = twoStageJob
	GrayOptions = grayOptions
	RaceEnabled = raceEnabled
)

// Conf returns reg, or a fresh catalogue registry if reg is nil, with each
// "key=value" set; a pair the registry refuses panics.
func Conf(reg *conf.Registry, kvs ...string) *conf.Registry {
	if reg == nil {
		reg = conf.New()
	}
	for _, kv := range kvs {
		k, v, err := conf.ParseFlag(kv)
		if err == nil {
			err = reg.Set(k, v)
		}
		if err != nil {
			panic(err)
		}
	}
	return reg
}

// TraceEvents decodes a trace log through ReadTraceRuns and returns the
// events of all its runs in order, failing t on a decode error.
func TraceEvents(t testing.TB, r io.Reader) []TraceEvent {
	t.Helper()
	runs, err := ReadTraceRuns(r)
	if err != nil {
		t.Fatal(err)
	}
	var evs []TraceEvent
	for _, run := range runs {
		evs = append(evs, run.Events...)
	}
	return evs
}

// Zombies reports how many completions the executor dropped as an earlier
// incarnation's.
func (ex *Executor) Zombies() int { return ex.zombies }

// StopRecycling makes e allocate every fetch plan afresh and keep its
// task-sized state to itself, as a sharded engine does: the reference a
// recycling run is held to. Called from Options.OnSetup, before anything has
// used them, it puts back the spares NewEngine took.
func (e *Engine) StopRecycling() {
	idleSpares.Put(e.spares)
	e.recycle = false
	e.UseSpares(new(runSpares))
}

// Queued reports how many launches wait in the executor's local queue.
func (ex *Executor) Queued() int { return ex.queue.Len() }

// QueueArray identifies the array of the executor's local launch queue, 0 for
// none.
func (ex *Executor) QueueArray() uintptr { return queueArray(ex.queue) }

// QueueArrays identifies, by node, the launch-queue arrays sp keeps for the
// next run, 0 for none.
func (sp *runSpares) QueueArrays() []uintptr {
	arrays := make([]uintptr, len(sp.nodes))
	for i, ns := range sp.nodes {
		arrays[i] = queueArray(ns.queue)
	}
	return arrays
}

// queueArray is the address of q's array, read through reflection since the
// FIFO keeps it unexported.
func queueArray(q sim.FIFO[launchMsg]) uintptr {
	return reflect.ValueOf(q).FieldByName("items").Pointer()
}

// Spares returns the spares e runs on. Wait gives them back to the stack for
// the next engine to take; UseSpares and NewEngineOn take them off it first,
// so no two engines run on one set.
func (e *Engine) Spares() *runSpares { return e.spares }

// UseSpares, called from Options.OnSetup, makes e run on sp and drops the
// spares NewEngine took.
func (e *Engine) UseSpares(sp *runSpares) {
	unstack(sp)
	e.spares, e.shuffle.spares = sp, sp
}

// unstack takes sp off the stack of spares if it is there, leaving the others
// in their order.
func unstack(sp *runSpares) {
	restack(slices.DeleteFunc(takeStacked(), func(s *runSpares) bool { return s == sp }))
}

// takeStacked takes every set off the stack of spares, the top one first.
func takeStacked() (sets []*runSpares) {
	for sp, ok := idleSpares.Take(); ok; sp, ok = idleSpares.Take() {
		sets = append(sets, sp)
	}
	return sets
}

// restack puts sets back on the stack of spares, the last one first, so that
// it holds them as takeStacked found them.
func restack(sets []*runSpares) {
	for _, sp := range slices.Backward(sets) {
		idleSpares.Put(sp)
	}
}

// DrainSpares empties the stack of spares and the file systems' list of
// recent input tables.
func DrainSpares() {
	takeStacked()
	dfs.DropTables()
}

// StackedSpares reports how many sets of spares the stack holds.
func StackedSpares() int {
	sets := takeStacked()
	restack(sets)
	return len(sets)
}

// Held reports what sp keeps for the next run: task contexts and task-table
// entries.
func (sp *runSpares) Held() [2]int {
	var held [2]int
	for tc := sp.contexts; tc != nil; tc = tc.free {
		held[0]++
	}
	for _, c := range sp.tasks.chunks {
		held[1] += len(c)
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
	unstack(sp)
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
