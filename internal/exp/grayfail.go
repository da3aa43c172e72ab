package exp

// GrayFailRow is one (policy, schedule) cell of the gray-failure matrix.
type GrayFailRow struct {
	Policy   string
	Schedule string
	Seconds  float64
	// DegradedPct is the runtime increase over the same policy's quiet
	// run.
	DegradedPct float64
	// Suspected counts heartbeat suspicions raised by the driver's
	// failure detector, including ones that later cleared.
	Suspected int
	// Fenced counts declared-lost incarnations ordered onto a fresh
	// epoch after a late heartbeat (detector false positives).
	Fenced            int
	LostExecutors     int
	FetchRetries      int
	ChecksumFailovers int
}

// GrayFailResult is the gray-failure experiment: Terasort under failure
// modes that degrade rather than kill — a node running slow, a network
// partition that drops heartbeats while tasks keep running, and silently
// corrupted DFS replicas. Where the faults experiment asks whether the
// sizing policies survive fail-stop crashes, this one asks whether they
// survive the murkier half of the failure spectrum: does the heartbeat
// detector's false positive stay fenced, do bounded fetch retries absorb
// the partition, and does checksum failover route around rot.
type GrayFailResult struct {
	Rows []GrayFailRow
}

// NewGrayFailResult assembles the gray-failure rows from chaos-matrix
// cells.
func NewGrayFailResult(cells []ChaosCell) *GrayFailResult {
	res := &GrayFailResult{}
	for _, c := range cells {
		res.Rows = append(res.Rows, GrayFailRow{
			Policy:            c.Policy,
			Schedule:          c.Schedule,
			Seconds:           c.Report.Runtime.Seconds(),
			DegradedPct:       c.DegradedPct,
			Suspected:         c.Report.Suspected,
			Fenced:            c.Report.Fenced,
			LostExecutors:     c.Report.LostExecutors,
			FetchRetries:      c.Report.FetchRetries,
			ChecksumFailovers: c.Report.ChecksumFailovers,
		})
	}
	return res
}

// Get returns the row for (policy, schedule).
func (r *GrayFailResult) Get(policy, schedule string) (GrayFailRow, bool) {
	for _, row := range r.Rows {
		if row.Policy == policy && row.Schedule == schedule {
			return row, true
		}
	}
	return GrayFailRow{}, false
}

func (r *GrayFailResult) table() *Table {
	t := &Table{
		Title: "GrayFail — Terasort under gray failures (slow node, partition, corrupt replicas)",
		Name:  "grayfail",
		Columns: []Column{
			{Key: "policy", Head: "policy", HeadFmt: "%-16s", CellFmt: "%-16s"},
			{Key: "schedule", Head: "schedule", HeadFmt: "%-22s", CellFmt: "%-22s"},
			{Key: "seconds", Head: "runtime", HeadFmt: "%9s", CellFmt: "%8.1fs"},
			{Key: "degraded_pct", Head: "degraded", HeadFmt: "%9s", CellFmt: "%+8.1f%%"},
			{Key: "suspected", Head: "suspect", HeadFmt: "%7s", CellFmt: "%7d"},
			{Key: "fenced", Head: "fenced", HeadFmt: "%6s", CellFmt: "%6d"},
			{Key: "lost_executors", Head: "lost", HeadFmt: "%5s", CellFmt: "%5d"},
			{Key: "fetch_retries", Head: "fetchRT", HeadFmt: "%7s", CellFmt: "%7d"},
			{Key: "checksum_failovers", Head: "ckFailovr", HeadFmt: "%9s", CellFmt: "%9d"},
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []any{
			row.Policy, row.Schedule, row.Seconds, row.DegradedPct,
			row.Suspected, row.Fenced, row.LostExecutors,
			row.FetchRetries, row.ChecksumFailovers,
		})
	}
	return t
}

func (r *GrayFailResult) String() string { return r.table().String() }

// CSVTables implements Tabular.
func (r *GrayFailResult) CSVTables() map[string][][]string { return r.table().CSVTables() }
