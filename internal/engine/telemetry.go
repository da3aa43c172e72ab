package engine

import (
	"strconv"
	"time"

	"sae/internal/engine/job"
	"sae/internal/metrics"
	"sae/internal/sim"
	"sae/internal/telemetry"
)

// Queue-delay histogram buckets in seconds, spanning sub-second slot grabs
// to multi-minute open-loop backlogs.
var delayBuckets = []float64{0.5, 1, 2, 5, 10, 30, 60, 120, 300, 600}

// engineTelemetry wires the engine into a telemetry.Registry: gauges read
// live driver state at each sampler tick, counters mirror the event log and
// task metrics, and a kernel timer drives Registry.Sample on the sim clock
// so same-seed runs export byte-identical series. A nil *engineTelemetry
// (no Options.Metrics) is valid and makes every hook a no-op, keeping the
// zero-config path untouched.
type engineTelemetry struct {
	eng *Engine
	reg *telemetry.Registry

	// events counts trace events by type, registered lazily per type —
	// one family covers crashes, suspicions, fences, checksum failovers,
	// autoscale actions and the rest of the event vocabulary.
	events map[string]*telemetry.Counter

	slotOffers        *telemetry.Counter
	diskRead          *telemetry.Counter
	diskWrite         *telemetry.Counter
	netBytes          *telemetry.Counter
	fetchRetries      *telemetry.Counter
	checksumFailovers *telemetry.Counter
	taskQueueDelay    *telemetry.Histogram
	jobQueueDelay     *telemetry.Histogram
}

func newEngineTelemetry(e *Engine) *engineTelemetry {
	reg := e.opts.Metrics
	t := &engineTelemetry{
		eng:    e,
		reg:    reg,
		events: map[string]*telemetry.Counter{},

		slotOffers: reg.Counter("sae_scheduler_slot_offers_total",
			"Free-slot offers made to assignable executors."),
		diskRead: reg.Counter("sae_disk_read_bytes_total",
			"Disk bytes read by task attempts."),
		diskWrite: reg.Counter("sae_disk_write_bytes_total",
			"Disk bytes written by task attempts."),
		netBytes: reg.Counter("sae_net_bytes_total",
			"Network bytes moved by task attempts (shuffle fetches and remote reads)."),
		fetchRetries: reg.Counter("sae_fetch_retries_total",
			"Bounded shuffle-fetch retries across task attempts."),
		checksumFailovers: reg.Counter("sae_checksum_failovers_total",
			"DFS reads that failed a checksum and fell over to another replica."),
		taskQueueDelay: reg.Histogram("sae_scheduler_queue_delay_seconds",
			"Stage activation to first launch, per task.", delayBuckets),
		jobQueueDelay: reg.Histogram("sae_job_queue_delay_seconds",
			"Submission to first task launch, per job.", delayBuckets),
	}

	reg.CounterFunc("sae_tasks_done_total",
		"Winning task completions engine-wide.",
		func() float64 { return float64(e.tasksDone) })
	reg.GaugeFunc("sae_jobs_completed",
		"Jobs that have finished or failed.",
		func() float64 { return float64(e.completed) })
	reg.GaugeFunc("sae_jobs_running",
		"Jobs admitted and not yet finished.",
		func() float64 {
			n := 0
			for _, js := range e.jobs {
				if js.started && !js.done {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("sae_slots_total",
		"Thread-pool slots across assignable executors.",
		func() float64 {
			n := 0
			for i := range e.executors {
				if e.em.alive[i] {
					n += e.em.limits[i]
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("sae_slots_busy",
		"Task attempts in flight across executors.",
		func() float64 {
			n := 0
			for i := range e.executors {
				n += e.em.inflight[i]
			}
			return float64(n)
		})
	reg.GaugeFunc("sae_execmgr_suspected",
		"Executors currently suspected by the heartbeat detector.",
		func() float64 {
			n := 0
			for _, s := range e.em.suspected {
				if s {
					n++
				}
			}
			return float64(n)
		})
	reg.CounterFunc("sae_shuffle_bytes_total",
		"Currently-valid registered map-output bytes.",
		func() float64 { return float64(e.shuffle.registeredBytes()) })

	t.registerExecutors()
	if e.auto != nil {
		t.registerAutoscale()
	}
	return t
}

// registerExecutors attaches per-executor gauges plus the windowed ζ gauge:
// the paper's ε/µ (metrics.Interval.Congestion) of the growth of the
// cumulative ε and byte counters over each sampling interval — not the
// duration / tasks / µ index the MAPE-K analyzer compares.
func (t *engineTelemetry) registerExecutors() {
	e := t.eng
	n := len(e.executors)
	zeta := make([]*telemetry.Gauge, n)
	lastBytes := make([]int64, n)
	lastBlocked := make([]time.Duration, n)
	var lastTick time.Duration
	for i, ex := range e.executors {
		label := strconv.Itoa(i)
		t.reg.GaugeFunc("sae_executor_pool_size",
			"Current worker-pool size (thread limit).",
			func() float64 { return float64(ex.limit) }, "exec", label)
		t.reg.GaugeFunc("sae_executor_running_tasks",
			"Task attempts currently running on the executor.",
			func() float64 { return float64(ex.running) }, "exec", label)
		t.reg.GaugeFunc("sae_executor_alive",
			"1 while the executor process is alive.",
			func() float64 {
				if ex.alive {
					return 1
				}
				return 0
			}, "exec", label)
		t.reg.GaugeFunc("sae_executor_heartbeat_age_seconds",
			"Virtual time since the driver accepted the executor's last heartbeat.",
			func() float64 { return (e.k.Now() - e.em.lastBeat[i]).Seconds() }, "exec", label)
		t.reg.CounterFunc("sae_executor_bytes_total",
			"Cumulative bytes moved by the executor's winning and losing attempts.",
			func() float64 { return float64(ex.cumBytes) }, "exec", label)
		t.reg.CounterFunc("sae_executor_blocked_io_seconds_total",
			"Cumulative ε: task time spent blocked on I/O completions.",
			func() float64 { return ex.cumBlockedIO.Seconds() }, "exec", label)
		zeta[i] = t.reg.Gauge("sae_executor_zeta",
			"Congestion index ζ = ε/µ over the last sampling interval.", "exec", label)
	}
	t.reg.OnSample("sae_executor_zeta", func(at time.Duration) {
		if at <= lastTick {
			return
		}
		for i, ex := range e.executors {
			zeta[i].Set(metrics.Interval{
				Start:     lastTick,
				End:       at,
				BlockedIO: ex.cumBlockedIO - lastBlocked[i],
				Bytes:     ex.cumBytes - lastBytes[i],
			}.Congestion())
			lastBytes[i] = ex.cumBytes
			lastBlocked[i] = ex.cumBlockedIO
		}
		lastTick = at
	})
}

// registerAutoscale attaches the elastic-cluster gauges: node counts by
// administrative state and the backlog the scaling policy reacts to.
func (t *engineTelemetry) registerAutoscale() {
	e := t.eng
	countState := func(want adminState) func() float64 {
		return func() float64 {
			n := 0
			for i, st := range e.em.admin {
				if st == want && !(want == adminDown && e.auto.pendingNode[i]) {
					n++
				}
			}
			return float64(n)
		}
	}
	t.reg.GaugeFunc("sae_autoscale_nodes",
		"Nodes by administrative state.", countState(adminActive), "state", "active")
	t.reg.GaugeFunc("sae_autoscale_nodes",
		"Nodes by administrative state.", countState(adminDraining), "state", "draining")
	t.reg.GaugeFunc("sae_autoscale_nodes",
		"Nodes by administrative state.", countState(adminDown), "state", "down")
	t.reg.GaugeFunc("sae_autoscale_nodes",
		"Nodes by administrative state.",
		func() float64 { return float64(e.auto.pending) }, "state", "pending")
	t.reg.GaugeFunc("sae_autoscale_backlog_tasks",
		"Pending task attempts across every active task set.",
		func() float64 { return float64(e.sched.pendingTotal(-1)) })
}

// arm takes the t=0 baseline sample and schedules the periodic sampler on
// the sim clock; the tick cancels itself when the last job completes, and
// Wait takes one final end-of-run sample (merge-last-wins if it lands on a
// tick).
func (t *engineTelemetry) arm() {
	e := t.eng
	t.reg.Sample(0)
	var tick sim.Event
	tick = e.k.Every(e.opts.MetricsInterval, func() {
		if e.done.Load() {
			tick.Cancel()
			return
		}
		t.reg.Sample(e.k.Now())
	})
}

// registerJob attaches the per-job scheduler gauges at admission.
func (t *engineTelemetry) registerJob(js *jobState) {
	if t == nil {
		return
	}
	e := t.eng
	label := strconv.Itoa(js.id)
	t.reg.GaugeFunc("sae_scheduler_pending_tasks",
		"Queued (unassigned) task attempts of the job.",
		func() float64 { return float64(e.sched.pendingTotal(js.id)) }, "job", label)
	t.reg.GaugeFunc("sae_scheduler_running_tasks",
		"In-flight task attempts of the job.",
		func() float64 { return float64(js.running) }, "job", label)
}

// onEvent mirrors one trace event into the per-type counter family.
func (t *engineTelemetry) onEvent(typ string) {
	if t == nil {
		return
	}
	c, ok := t.events[typ]
	if !ok {
		c = t.reg.Counter("sae_events_total", "Engine trace events by type.", "type", typ)
		t.events[typ] = c
	}
	c.Inc()
}

// onTaskMetrics accumulates a reported attempt's I/O and gray-failure
// activity (all attempts that charge their job, matching JobReport).
func (t *engineTelemetry) onTaskMetrics(m job.TaskMetrics) {
	if t == nil {
		return
	}
	t.diskRead.Add(float64(m.DiskReadBytes))
	t.diskWrite.Add(float64(m.DiskWriteBytes))
	t.netBytes.Add(float64(m.NetBytes))
	t.fetchRetries.Add(float64(m.FetchRetries))
	t.checksumFailovers.Add(float64(m.ChecksumFailovers))
}

// onSlotOffer counts one free-slot offer to an assignable executor.
func (t *engineTelemetry) onSlotOffer() {
	if t == nil {
		return
	}
	t.slotOffers.Inc()
}

// onTaskQueued records a task's stage-activation→launch delay.
func (t *engineTelemetry) onTaskQueued(d time.Duration) {
	if t == nil {
		return
	}
	t.taskQueueDelay.Observe(d.Seconds())
}

// onJobLaunched records a job's submission→first-launch delay.
func (t *engineTelemetry) onJobLaunched(d time.Duration) {
	if t == nil {
		return
	}
	t.jobQueueDelay.Observe(d.Seconds())
}
