package multicast

import (
	"math"
	"time"

	"catocs/internal/metrics"
	"catocs/internal/vclock"
)

// PhiDetector is an adaptive accrual failure detector in the style of
// Hayashibara's phi-accrual: instead of a fixed timeout, each peer's
// heartbeat inter-arrival times feed a sliding statistical window, and
// suspicion is a continuous value — phi = -log10 of the probability
// that a gap at least this long would occur under the observed arrival
// distribution. A fixed threshold on phi then adapts automatically to
// the link's actual latency and jitter: a peer on a slow-but-steady
// link is never suspected, while a silent peer's phi grows without
// bound as the gap leaves the observed distribution's support.
//
// In this stack the "heartbeats" are the stability acks and data the
// atomic protocol already exchanges, so the detector costs no extra
// wire traffic. fireAck re-arms while any message is unstable, so a
// congested group keeps acking even when the application is idle —
// exactly the regime where failure suspicion matters for buffer
// drainage. A settled group (nothing unstable anywhere) goes silent by
// design, and silence there is not evidence: when a member's ack cycle
// comes back from a settled stop, the member calls Start, so the quiet
// period neither enters a peer's inter-arrival window nor counts
// towards its phi. The cost is that a peer that crashes during the
// quiet is suspected only once traffic resumes, measured from then. The
// detector is passive and allocation-light: Observe records an
// arrival, Phi/Suspect are pure queries.
type PhiDetector struct {
	threshold float64
	// minStd floors the model's standard deviation so a perfectly
	// regular arrival stream (a simulator artifact) does not produce a
	// hair-trigger detector.
	minStd time.Duration
	// bootstrap is the silence needed to suspect a peer before enough
	// inter-arrival samples exist to model it (e.g. a peer that dies
	// during startup).
	bootstrap time.Duration

	last []time.Duration
	seen []bool
	win  []*metrics.Window
}

// Detector model constants: window size bounds how fast the model
// adapts; phiCap keeps Phi finite when the tail probability underflows.
const (
	detectorWindow  = 64
	detectorMinObs  = 3
	phiCap          = 100.0
	defaultPhi      = 8.0
	defaultMinStd   = 2 * time.Millisecond
	defaultBootstrp = 500 * time.Millisecond
)

// NewPhiDetector returns a detector for n peers with the given
// suspicion threshold (<=0 selects the conventional 8, i.e. a
// one-in-10^8 false-positive rate under the fitted model).
func NewPhiDetector(n int, threshold float64) *PhiDetector {
	if threshold <= 0 {
		threshold = defaultPhi
	}
	d := &PhiDetector{
		threshold: threshold,
		minStd:    defaultMinStd,
		bootstrap: defaultBootstrp,
	}
	d.Resize(n)
	return d
}

// Resize rebuilds the detector for a new peer count, discarding all
// arrival history (a view change resets the ack schedule anyway).
func (d *PhiDetector) Resize(n int) {
	d.last = make([]time.Duration, n)
	d.seen = make([]bool, n)
	d.win = make([]*metrics.Window, n)
	for i := range d.win {
		d.win[i] = metrics.NewWindow(detectorWindow)
	}
}

// Start marks now as the reference arrival for every peer, so silence
// is measured from the group's start rather than from a first beat
// that a dead-on-arrival peer never sends.
func (d *PhiDetector) Start(now time.Duration) {
	for i := range d.last {
		d.last[i] = now
	}
}

// Observe records a liveness signal from peer p at time now.
func (d *PhiDetector) Observe(p vclock.ProcessID, now time.Duration) {
	i := int(p)
	if i < 0 || i >= len(d.last) {
		return
	}
	if d.seen[i] {
		gap := now - d.last[i]
		if gap > 0 {
			d.win[i].Push(gap.Seconds())
		}
	}
	d.seen[i] = true
	d.last[i] = now
}

// Phi returns peer p's current suspicion level at time now, capped at
// phiCap. Before the window holds enough samples, phi ramps linearly
// so the bootstrap silence threshold maps onto the configured
// suspicion threshold.
func (d *PhiDetector) Phi(p vclock.ProcessID, now time.Duration) float64 {
	i := int(p)
	if i < 0 || i >= len(d.last) {
		return 0
	}
	elapsed := now - d.last[i]
	if elapsed <= 0 {
		return 0
	}
	w := d.win[i]
	if w.Count() < detectorMinObs {
		return d.threshold * float64(elapsed) / float64(d.bootstrap)
	}
	mean := w.Mean()
	std := w.StdDev()
	if floor := d.minStd.Seconds(); std < floor {
		std = floor
	}
	if floor := mean / 4; std < floor {
		std = floor
	}
	// P(gap >= elapsed) under a normal fit of the inter-arrival window.
	z := (elapsed.Seconds() - mean) / std
	pLater := 0.5 * math.Erfc(z/math.Sqrt2)
	if pLater <= 0 {
		return phiCap
	}
	phi := -math.Log10(pLater)
	if phi > phiCap {
		return phiCap
	}
	return phi
}

// Suspect reports whether peer p's phi has crossed the threshold.
func (d *PhiDetector) Suspect(p vclock.ProcessID, now time.Duration) bool {
	return d.Phi(p, now) >= d.threshold
}

// Threshold returns the configured suspicion threshold.
func (d *PhiDetector) Threshold() float64 { return d.threshold }
