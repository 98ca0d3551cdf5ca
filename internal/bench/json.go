package bench

// CellJSON is one sweep cell in machine-readable form.
type CellJSON struct {
	App                   string  `json:"app"`
	Mode                  string  `json:"mode"`
	ChangePct             int     `json:"changePct"`
	WorkSpeedupVsScratch  float64 `json:"workSpeedupVsScratch"`
	TimeSpeedupVsScratch  float64 `json:"timeSpeedupVsScratch"`
	WorkSpeedupVsStrawman float64 `json:"workSpeedupVsStrawman"`
	TimeSpeedupVsStrawman float64 `json:"timeSpeedupVsStrawman"`
	SliderWorkNs          int64   `json:"sliderWorkNs"`
	ScratchWorkNs         int64   `json:"scratchWorkNs"`
	SliderCombines        int64   `json:"sliderCombines"`
	StrawmanCombines      int64   `json:"strawmanCombines"`
	InitWorkOverheadPct   float64 `json:"initWorkOverheadPct"`
	SpaceBytes            int64   `json:"spaceBytes"`
	InputBytes            int64   `json:"inputBytes"`
}

// QueryJSON is one Figure 10 cell.
type QueryJSON struct {
	Query       string  `json:"query"`
	Mode        string  `json:"mode"`
	Stages      int     `json:"stages"`
	WorkSpeedup float64 `json:"workSpeedup"`
	TimeSpeedup float64 `json:"timeSpeedup"`
}

// CaseStudyJSON is one case-study window.
type CaseStudyJSON struct {
	Table       string  `json:"table"`
	Label       string  `json:"label"`
	ChangePct   float64 `json:"changePct"`
	WorkSpeedup float64 `json:"workSpeedup"`
	TimeSpeedup float64 `json:"timeSpeedup"`
}

// ResultsJSON is the machine-readable record of one Run: a section per
// selected experiment, holding the values its text printed. Run fills the
// sections; its caller sets Scale, Commit (the commit the run was built
// from) and DurationMs.
type ResultsJSON struct {
	Scale        string                `json:"scale"`
	Commit       string                `json:"commit"`
	DurationMs   int64                 `json:"durationMs"`
	Sweep        []CellJSON            `json:"sweep,omitempty"`
	Queries      []QueryJSON           `json:"queries,omitempty"`
	Scheduler    map[string]float64    `json:"schedulerNormalized,omitempty"`
	CacheSavings map[string]float64    `json:"cacheReadSavingPct,omitempty"`
	CaseStudies  []CaseStudyJSON       `json:"caseStudies,omitempty"`
	Randomized   []Figure12Result      `json:"randomizedFolding,omitempty"`
	WindowScale  []AblationScaleResult `json:"windowScale,omitempty"`
}

// cellJSON is the sweep cell's record, read from the measurement the
// figures print.
func cellJSON(c Measurement) CellJSON {
	return CellJSON{
		App:                   c.App,
		Mode:                  c.Mode.String(),
		ChangePct:             c.Pct,
		WorkSpeedupVsScratch:  c.WorkSpeedupVsScratch(),
		TimeSpeedupVsScratch:  c.TimeSpeedupVsScratch(),
		WorkSpeedupVsStrawman: c.WorkSpeedupVsStrawman(),
		TimeSpeedupVsStrawman: c.TimeSpeedupVsStrawman(),
		SliderWorkNs:          int64(c.SliderReport.Work),
		ScratchWorkNs:         int64(c.ScratchReport.Work),
		SliderCombines:        c.SliderReport.Counters.CombineCalls,
		StrawmanCombines:      c.StrawReport.Counters.CombineCalls,
		InitWorkOverheadPct:   initWorkOverheadPct(c),
		SpaceBytes:            c.SpaceBytes,
		InputBytes:            c.InputBytes,
	}
}
