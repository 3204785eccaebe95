// Package trading reproduces Figure 4 of the paper: the trading-floor
// false crossing, the "can't say the whole story" limitation.
//
// An option-pricing server multicasts option prices; a theoretical-
// pricing server computes a derived price from each option price (with
// computation latency) and multicasts it. The application's semantic
// ordering constraint — a theoretical price is ordered after the
// underlying option price it derives from and *before all subsequent
// changes* to that price — is stronger than happens-before: the new
// option price and the old theoretical price are concurrent messages,
// so neither causal nor totally ordered multicast can prevent a
// monitor from pairing a fresh option price with a stale theoretical
// price, observing a crossing that never happened.
//
// The state-level solution is the production design the authors
// describe: each computed datum carries a dependency field (id +
// version of its base), general-purpose utilities (state.Cache)
// maintain the dependencies, and the display layer shows only
// dependency-consistent pairs.
package trading

import (
	"fmt"
	"time"

	"catocs/internal/multicast"
	"catocs/internal/obs"
	"catocs/internal/sim"
	"catocs/internal/state"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// OptionPrice is a base-price tick.
type OptionPrice struct {
	Symbol  string
	Version uint64
	Price   float64
}

// ApproxSize implements transport.Sizer.
func (OptionPrice) ApproxSize() int { return 48 }

// TheoPrice is a computed (derived) price with its dependency field.
type TheoPrice struct {
	Symbol  string
	Version uint64
	Price   float64
	// DepVersion is the option-price version this value derives from —
	// the paper's "designated dependency field".
	DepVersion uint64
}

// ApproxSize implements transport.Sizer.
func (TheoPrice) ApproxSize() int { return 56 }

// Config parameterizes a run.
type Config struct {
	Seed     int64
	Ordering multicast.Ordering
	// Ticks is the number of option-price updates.
	Ticks int
	// TickInterval is the time between option ticks.
	TickInterval time.Duration
	// ComputeDelay is the theoretical pricer's computation time.
	ComputeDelay time.Duration
	// Jitter is network jitter.
	Jitter time.Duration
	// TheoPremium: theoretical price = option price + premium, so a
	// displayed theo below the displayed option price is a crossing
	// that never truly occurred.
	TheoPremium float64
}

// DefaultConfig reproduces the figure's anomaly deterministically.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		Ordering:     multicast.Causal,
		Ticks:        3,
		TickInterval: 20 * time.Millisecond,
		ComputeDelay: 15 * time.Millisecond,
		TheoPremium:  0.25,
	}
}

// Result reports one run.
type Result struct {
	// Trace records the run, one node per rank in the diagram's column
	// order OptionPricing, TheoPricing, Monitor.
	Trace *obs.Tracer
	// RawFalseCrossings counts display instants where the monitor,
	// trusting delivery order, shows theo < option although the true
	// theo always sits above the option price.
	RawFalseCrossings int
	// RawStalePairings counts displays violating the semantic ordering
	// constraint (theo derived from an older option version than
	// displayed).
	RawStalePairings int
	// CacheFalseCrossings / CacheStalePairings are the same counts for
	// the dependency-checking display (expected 0).
	CacheFalseCrossings int
	CacheStalePairings  int
	// Displays is the number of display refreshes evaluated.
	Displays int
}

// Run executes the scenario. Ranks: option pricer = 0, theoretical
// pricer = 1, monitor = 2.
func Run(cfg Config) Result {
	k := sim.NewKernel(cfg.Seed)
	net := transport.NewSimNet(k, transport.LinkConfig{BaseDelay: 2 * time.Millisecond, Jitter: cfg.Jitter})
	const optionPricing, theoPricing, monitor = 0, 1, 2
	tr := obs.NewTracer()
	for i, col := range []string{"OptionPricing", "TheoPricing", "Monitor"} {
		tr.SetNodeLabel(i, col)
	}
	msgRef := func(format string, ver uint64) obs.MsgRef {
		return obs.MsgRef{Sender: -1, Label: fmt.Sprintf(format, ver)}
	}

	const sym = "OPT"
	res := Result{Trace: tr}

	// Monitor state, raw (delivery-order) view.
	var rawOpt, rawTheo *float64
	var rawOptVer, rawTheoDep uint64
	// Monitor state, dependency-checked view.
	cache := state.NewCache()

	evaluate := func() {
		res.Displays++
		// Raw display: whatever was delivered last.
		if rawOpt != nil && rawTheo != nil {
			if rawTheoDep < rawOptVer {
				res.RawStalePairings++
			}
			if *rawTheo < *rawOpt {
				res.RawFalseCrossings++
				tr.Mark(k.Now(), monitor,
					fmt.Sprintf("FALSE CROSSING: theo %.2f < option %.2f", *rawTheo, *rawOpt))
			}
		}
		// Dependency-checked display: show theo only when current.
		if ov, optVer, ok := cache.Get(sym); ok {
			if tv, _, ok2 := cache.Get("theo-" + sym); ok2 && cache.Current("theo-"+sym) {
				o, t := ov.(float64), tv.(float64)
				deps := cache.Deps("theo-" + sym)
				if len(deps) > 0 && deps[0].Seq < optVer {
					res.CacheStalePairings++
				}
				if t < o {
					res.CacheFalseCrossings++
				}
			}
		}
	}

	var members []*multicast.Member
	theoSeq := uint64(0)
	members = multicast.NewGroup(net, []transport.NodeID{0, 1, 2},
		multicast.Config{Group: "trading", Ordering: cfg.Ordering},
		func(rank vclock.ProcessID) multicast.DeliverFunc {
			switch rank {
			case 1: // theoretical pricer: recompute on each option tick
				return func(d multicast.Delivered) {
					if opt, ok := d.Payload.(OptionPrice); ok {
						k.After(cfg.ComputeDelay, func() {
							theoSeq++
							theo := TheoPrice{
								Symbol:     opt.Symbol,
								Version:    theoSeq,
								Price:      opt.Price + cfg.TheoPremium,
								DepVersion: opt.Version,
							}
							tr.Send(k.Now(), theoPricing, msgRef("theo#%d", theo.Version),
								fmt.Sprintf("Theoretical price %.2f (from opt#%d)", theo.Price, opt.Version))
							members[1].Multicast(theo, 32)
						})
					}
				}
			case 2: // monitor
				return func(d multicast.Delivered) {
					switch msg := d.Payload.(type) {
					case OptionPrice:
						tr.Deliver(k.Now(), monitor, msgRef("opt#%d", msg.Version),
							fmt.Sprintf("Option price %.2f", msg.Price))
						p := msg.Price
						rawOpt, rawOptVer = &p, msg.Version
						cache.Apply(state.Update{Object: msg.Symbol, Version: msg.Version, Value: msg.Price})
					case TheoPrice:
						tr.Deliver(k.Now(), monitor, msgRef("theo#%d", msg.Version),
							fmt.Sprintf("Theoretical price %.2f", msg.Price))
						p := msg.Price
						rawTheo, rawTheoDep = &p, msg.DepVersion
						cache.Apply(state.Update{
							Object: "theo-" + msg.Symbol, Version: msg.Version, Value: msg.Price,
							Deps: []vclock.Version{{Object: msg.Symbol, Seq: msg.DepVersion}},
						})
					}
					evaluate()
				}
			default:
				return nil
			}
		})

	// Option price walk: rising prices, as in the figure (25.5, 26, 26.5).
	price := 25.5
	for i := 0; i < cfg.Ticks; i++ {
		i := i
		k.At(time.Duration(i)*cfg.TickInterval, func() {
			ver := uint64(i + 1)
			tr.Send(k.Now(), optionPricing, msgRef("opt#%d", ver), fmt.Sprintf("Option price %.2f", price))
			members[0].Multicast(OptionPrice{Symbol: sym, Version: ver, Price: price}, 32)
			price += 0.5
		})
	}

	k.Run()
	return res
}

// Trials runs n randomized runs and aggregates anomaly counts.
func Trials(n int, baseSeed int64, ordering multicast.Ordering) (rawCross, rawStale, cacheCross, cacheStale int) {
	for i := 0; i < n; i++ {
		cfg := DefaultConfig()
		cfg.Seed = baseSeed + int64(i)
		cfg.Ordering = ordering
		cfg.Ticks = 10
		cfg.Jitter = 10 * time.Millisecond
		r := Run(cfg)
		rawCross += r.RawFalseCrossings
		rawStale += r.RawStalePairings
		cacheCross += r.CacheFalseCrossings
		cacheStale += r.CacheStalePairings
	}
	return
}
