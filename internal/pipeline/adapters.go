package pipeline

// Adapters wrapping each of the repo's detector families behind the
// PhaseDetector interface. Each adapter is a name plus a forwarder: its
// ObserveInterval calls the wrapped detector directly (statically typed,
// so phaselint's hotpath analyzer follows the call) and its snapshot
// methods forward to the wrapped detector's. The only state an adapter
// adds is per-interval scratch and the last-verdict storage its payload
// points into — valid until the adapter's next ObserveInterval, and not
// part of any snapshot.

import (
	"regionmon/internal/altdetect"
	"regionmon/internal/changepoint"
	"regionmon/internal/gpd"
	"regionmon/internal/hpm"
	"regionmon/internal/lpd"
	"regionmon/internal/region"
	"regionmon/internal/snap"
)

// Default detector names used by the adapter constructors.
const (
	NameGPD         = "gpd"
	NameRegions     = "regions"
	NameBBV         = "bbv"
	NameWorkingSet  = "working-set"
	NameCPI         = "cpi"
	NameDPI         = "dpi"
	NameChangePoint = "changepoint"
)

// GPD adapts the centroid-based global detector. Payload: *gpd.Verdict.
//
//lint:single-owner
type GPD struct {
	det  *gpd.Detector
	pcs  []uint64    //lint:config -- scratch, reused across intervals
	last gpd.Verdict //lint:config -- payload storage; rebuilt next interval
}

// NewGPD wraps det under NameGPD.
func NewGPD(det *gpd.Detector) *GPD { return &GPD{det: det} }

// Name implements PhaseDetector.
func (g *GPD) Name() string { return NameGPD }

// ObserveInterval implements PhaseDetector.
func (g *GPD) ObserveInterval(ov *hpm.Overflow) Verdict {
	g.pcs = hpm.PCs(ov, g.pcs[:0])
	g.last = g.det.ObservePCs(g.pcs)
	return Verdict{
		Detector:    NameGPD,
		Stable:      g.last.State == gpd.Stable,
		PhaseChange: g.last.PhaseChange,
		Payload:     &g.last,
	}
}

// AppendSnapshot implements Snapshotter.
func (g *GPD) AppendSnapshot(e *snap.Encoder) error { g.det.AppendSnapshot(e); return nil }

// RestoreSnapshot implements Snapshotter.
func (g *GPD) RestoreSnapshot(d *snap.Decoder) error { return g.det.RestoreSnapshot(d) }

// RegionMonitor adapts the region monitoring framework (UCR accounting,
// formation, per-region LPD). Payload: *region.Report.
//
// The unified verdict condenses the per-region picture: Stable reports
// that the sample-weighted majority of this interval's monitored samples
// landed in locally stable regions; PhaseChange reports that at least one
// region crossed its stable boundary this interval. Consumers needing the
// full per-region detail read the payload.
//
//lint:single-owner
type RegionMonitor struct {
	mon  *region.Monitor
	last region.Report //lint:config -- payload storage; rebuilt next interval

	stableW float64 // sample-weighted locally-stable accumulation
	totalW  float64
}

// NewRegionMonitor wraps mon under NameRegions.
func NewRegionMonitor(mon *region.Monitor) *RegionMonitor { return &RegionMonitor{mon: mon} }

// Name implements PhaseDetector.
func (r *RegionMonitor) Name() string { return NameRegions }

// WeightedStableFraction returns the whole-run sample-weighted share of
// monitored samples that landed in locally stable regions — the
// aggregate the paper's RTO-LPD accounting and the detector-panel
// experiment both report.
func (r *RegionMonitor) WeightedStableFraction() float64 {
	if r.totalW == 0 {
		return 0
	}
	return r.stableW / r.totalW
}

// PhaseChanges returns the total per-region stable→unstable count, summed
// over the currently monitored regions (Figure 13's aggregate).
func (r *RegionMonitor) PhaseChanges() int {
	n := 0
	for _, reg := range r.mon.Regions() {
		n += reg.Detector.PhaseChanges()
	}
	return n
}

// ObserveInterval implements PhaseDetector.
func (r *RegionMonitor) ObserveInterval(ov *hpm.Overflow) Verdict {
	r.last = r.mon.ProcessOverflow(ov)
	var stableW, totalW float64
	change := false
	for i := range r.last.Verdicts {
		rv := &r.last.Verdicts[i]
		if rv.Verdict.PhaseChange {
			change = true
		}
		if rv.Samples > 0 {
			w := float64(rv.Samples)
			totalW += w
			if rv.Verdict.State == lpd.Stable {
				stableW += w
			}
		}
	}
	r.stableW += stableW
	r.totalW += totalW
	return Verdict{
		Detector:    NameRegions,
		Stable:      totalW > 0 && stableW*2 > totalW,
		PhaseChange: change,
		Payload:     &r.last,
	}
}

// AppendSnapshot implements Snapshotter: the monitor's state plus the
// adapter's weighted-stability accumulators.
func (r *RegionMonitor) AppendSnapshot(e *snap.Encoder) error {
	r.mon.AppendSnapshot(e)
	e.F64(r.stableW)
	e.F64(r.totalW)
	return nil
}

// RestoreSnapshot implements Snapshotter.
func (r *RegionMonitor) RestoreSnapshot(d *snap.Decoder) error {
	if err := r.mon.RestoreSnapshot(d); err != nil {
		return err
	}
	r.stableW = d.F64()
	r.totalW = d.F64()
	return d.Err()
}

// altScheme is the shape shared by the Section 4 related-work schemes.
type altScheme interface {
	Observe(ov *hpm.Overflow) altdetect.Verdict
	AppendSnapshot(e *snap.Encoder)
	RestoreSnapshot(d *snap.Decoder) error
}

// Alt adapts either Section 4 related-work scheme (basic-block vectors or
// working-set signatures). Payload: *altdetect.Verdict. These schemes
// have no multi-state machine: Stable is simply "no change flagged this
// interval", and every flagged change is a phase change.
//
//lint:single-owner
type Alt struct {
	det  altScheme
	name string            //lint:config -- fixed at construction
	last altdetect.Verdict //lint:config -- payload storage; rebuilt next interval
}

// NewBBV wraps a basic-block-vector detector under NameBBV.
func NewBBV(det *altdetect.BBV) *Alt { return &Alt{det: det, name: NameBBV} }

// NewWorkingSet wraps a working-set-signature detector under
// NameWorkingSet.
func NewWorkingSet(det *altdetect.WorkingSet) *Alt {
	return &Alt{det: det, name: NameWorkingSet}
}

// Name implements PhaseDetector.
func (a *Alt) Name() string { return a.name }

// ObserveInterval implements PhaseDetector.
func (a *Alt) ObserveInterval(ov *hpm.Overflow) Verdict {
	a.last = a.det.Observe(ov)
	return Verdict{
		Detector:    a.name,
		Stable:      !a.last.Changed,
		PhaseChange: a.last.Changed,
		Payload:     &a.last,
	}
}

// AppendSnapshot implements Snapshotter.
func (a *Alt) AppendSnapshot(e *snap.Encoder) error { a.det.AppendSnapshot(e); return nil }

// RestoreSnapshot implements Snapshotter.
func (a *Alt) RestoreSnapshot(d *snap.Decoder) error { return a.det.RestoreSnapshot(d) }

// Perf adapts a performance-characteristic tracker (gpd.PerfTracker) over
// a scalar per-interval metric. Payload: *gpd.PerfVerdict. Stable is
// "value inside the band"; a flagged change is a phase change in the
// performance characteristics (the paper's CPI/DPI signal).
//
//lint:single-owner
type Perf struct {
	tr     *gpd.PerfTracker
	name   string                      //lint:config -- fixed at construction
	metric func(*hpm.Overflow) float64 //lint:config -- fixed at construction
	last   gpd.PerfVerdict             //lint:config -- payload storage; rebuilt next interval
}

// NewCPI wraps tr over the interval CPI metric under NameCPI.
func NewCPI(tr *gpd.PerfTracker) *Perf { return &Perf{tr: tr, name: NameCPI, metric: hpm.CPI} }

// NewDPI wraps tr over the interval DPI metric under NameDPI.
func NewDPI(tr *gpd.PerfTracker) *Perf { return &Perf{tr: tr, name: NameDPI, metric: hpm.DPI} }

// Name implements PhaseDetector.
func (p *Perf) Name() string { return p.name }

// ObserveInterval implements PhaseDetector.
func (p *Perf) ObserveInterval(ov *hpm.Overflow) Verdict {
	p.last = p.tr.Observe(p.metric(ov))
	return Verdict{
		Detector:    p.name,
		Stable:      !p.last.Changed,
		PhaseChange: p.last.Changed,
		Payload:     &p.last,
	}
}

// AppendSnapshot implements Snapshotter.
func (p *Perf) AppendSnapshot(e *snap.Encoder) error { p.tr.AppendSnapshot(e); return nil }

// RestoreSnapshot implements Snapshotter.
func (p *Perf) RestoreSnapshot(d *snap.Decoder) error { return p.tr.RestoreSnapshot(d) }

// ChangePoint adapts the E-divisive online detector over the interval
// CPI metric. Payload: *changepoint.Verdict. Stable is "no change point
// confirmed this interval"; a confirmed change point is a phase change in
// the metric's distribution — the statistically grounded counterpart of
// the Perf adapter's band check over the same signal.
//
//lint:single-owner
type ChangePoint struct {
	det  *changepoint.Detector
	last changepoint.Verdict //lint:config -- payload storage; rebuilt next interval
}

// NewChangePoint wraps det under NameChangePoint.
func NewChangePoint(det *changepoint.Detector) *ChangePoint { return &ChangePoint{det: det} }

// Name implements PhaseDetector.
func (c *ChangePoint) Name() string { return NameChangePoint }

// ObserveInterval implements PhaseDetector.
func (c *ChangePoint) ObserveInterval(ov *hpm.Overflow) Verdict {
	c.last = c.det.Observe(hpm.CPI(ov))
	return Verdict{
		Detector:    NameChangePoint,
		Stable:      !c.last.Changed,
		PhaseChange: c.last.Changed,
		Payload:     &c.last,
	}
}

// AppendSnapshot implements Snapshotter.
func (c *ChangePoint) AppendSnapshot(e *snap.Encoder) error { c.det.AppendSnapshot(e); return nil }

// RestoreSnapshot implements Snapshotter.
func (c *ChangePoint) RestoreSnapshot(d *snap.Decoder) error { return c.det.RestoreSnapshot(d) }

// Interface conformance for every built-in adapter.
var (
	_ Snapshotter = (*GPD)(nil)
	_ Snapshotter = (*RegionMonitor)(nil)
	_ Snapshotter = (*Alt)(nil)
	_ Snapshotter = (*Perf)(nil)
	_ Snapshotter = (*ChangePoint)(nil)
)
