package experiments

import (
	"time"

	"catocs/internal/obs"
	"catocs/internal/sim"
)

// ObsHook plugs the live observability plane (internal/obs/live) into
// experiment runs. Experiments are driven from the sim kernel's
// single thread, so the hook works by *publication*: each run wires
// the hook's registry into its network instrumentation (counters flow
// on the wire path) and arms a periodic kernel event that snapshots
// every member's Introspector status and hands the batch to Publish —
// normally live.Server.PublishStatus, which serves it at /statusz and
// mirrors it into the registry for /metrics.
//
// The hook is installed process-globally (SetObsHook) because the run
// functions are called from many entry points (cmd/scalebench,
// cmd/experiments, tests) that should not all grow plumbing parameters
// for an optional concern. Experiments read it at run start; a nil
// hook costs one pointer check.
type ObsHook struct {
	// Registry receives wire counters and mirrored status gauges;
	// served at /metrics.
	Registry *obs.Registry
	// Tracer, when set, replaces the run's own tracer — pass a sampled
	// tracer (obs.NewSampledTracer) to feed /tracez. Runs that analyze
	// their trace (E17's breakdown) still work, on the sampled subset.
	Tracer *obs.Tracer
	// Publish receives each status batch (live.Server.PublishStatus).
	Publish func([]obs.Status)
	// Interval is the virtual-time publication period; 0 means 50ms.
	Interval time.Duration
}

// hook is the installed ObsHook; nil when the plane is off.
var hook *ObsHook

// SetObsHook installs (or, with nil, removes) the process-global hook.
// Not safe to call while a run is in flight.
func SetObsHook(h *ObsHook) { hook = h }

// obsHookRegistry returns the hook's registry, or nil when no hook is
// installed — the value runs pass to Network.Instrument.
func obsHookRegistry() *obs.Registry {
	if hook == nil {
		return nil
	}
	return hook.Registry
}

// obsHookTracer returns the hook's tracer override, or def.
func obsHookTracer(def *obs.Tracer) *obs.Tracer {
	if hook == nil || hook.Tracer == nil {
		return def
	}
	return hook.Tracer
}

// obsHookPublish arms the periodic status-publication loop on the
// kernel: every interval of virtual time, snapshot the introspectors
// and publish the batch. The loop re-arms itself, so it runs for as
// long as the kernel does; events past the run's horizon simply never
// fire. No-op without an installed hook.
func obsHookPublish(k *sim.Kernel, substrate string, is ...obs.Introspector) {
	if hook == nil || hook.Publish == nil {
		return
	}
	interval := hook.Interval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	h := hook
	var tick func()
	tick = func() {
		h.Publish(obs.CollectStatus(substrate, is...))
		k.At(k.Now()+interval, tick)
	}
	k.At(k.Now()+interval, tick)
}
