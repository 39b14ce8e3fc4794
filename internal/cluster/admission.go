// Front-end admission control: per-SLO-class token buckets gate the
// fleet's open-loop arrival stream before routing. Each class refills at
// its configured rate in virtual time; a query arriving to an empty
// bucket is either shed (counted, never routed — the overload answer
// that keeps the admitted tail bounded) or queued (its admission is
// delayed until the next token accrues — the answer that trades delay
// for completeness). Buckets are driven sequentially by the routing
// loop, so admission is a pure function of the arrival sequence and
// fleet results stay bit-identical at any Config.HostWorkers.
package cluster

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"sdm/internal/simclock"
)

// ClassAdmit is one SLO class's token-bucket admission policy.
type ClassAdmit struct {
	// Name labels the class in reports ("" renders as "class<i>").
	Name string
	// RatePerSec is the sustained admission rate in queries/second.
	// <= 0 admits everything (no bucket).
	RatePerSec float64
	// Burst is the bucket depth in tokens — how far above RatePerSec a
	// transient spike may run. 0 selects max(1, RatePerSec/10).
	Burst float64
	// Queue selects what happens on an empty bucket: false sheds the
	// query (rejected, never routed), true delays its admission until
	// the next token accrues.
	Queue bool
}

// AdmitConfig is the fleet's admission policy: Classes[i] governs SLO
// class i, and classes beyond the slice are admitted unconditionally.
type AdmitConfig struct {
	Classes []ClassAdmit
}

// ParseAdmit parses a comma-separated admission spec into an
// AdmitConfig: one "name=rate[:burst][:queue|shed]" entry per SLO class,
// in class order. Rate is queries/second; burst the bucket depth in
// tokens (omitted = the rate/10 default); the trailing mode selects
// queue-on-empty instead of the default shed. Class names must be unique.
// Example:
//
//	gold=3000:30,best-effort=2000:20:queue
func ParseAdmit(spec string) (AdmitConfig, error) {
	var cfg AdmitConfig
	seen := make(map[string]bool)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		name, rest, ok := strings.Cut(entry, "=")
		if !ok || name == "" || rest == "" {
			return cfg, fmt.Errorf("cluster: admission entry %q is not name=rate[:burst][:queue|shed]", entry)
		}
		cl := ClassAdmit{Name: strings.TrimSpace(name)}
		if seen[cl.Name] {
			return cfg, fmt.Errorf("cluster: admission class %q listed twice", cl.Name)
		}
		seen[cl.Name] = true
		parts := strings.Split(rest, ":")
		if len(parts) > 3 {
			return cfg, fmt.Errorf("cluster: admission entry %q has too many fields", entry)
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return cfg, fmt.Errorf("cluster: admission entry %q: bad rate: %v", entry, err)
		}
		cl.RatePerSec = rate
		mode := ""
		if len(parts) == 3 {
			mode = parts[2]
		}
		if len(parts) >= 2 {
			// The middle field is a burst unless it is the mode word of a
			// two-field entry ("gold=3000:queue").
			f := strings.TrimSpace(parts[1])
			if len(parts) == 2 && (f == "queue" || f == "shed") {
				mode = f
			} else {
				burst, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return cfg, fmt.Errorf("cluster: admission entry %q: bad burst: %v", entry, err)
				}
				cl.Burst = burst
			}
		}
		switch strings.TrimSpace(mode) {
		case "", "shed":
		case "queue":
			cl.Queue = true
		default:
			return cfg, fmt.Errorf("cluster: admission entry %q: mode must be queue or shed", entry)
		}
		cfg.Classes = append(cfg.Classes, cl)
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// Validate reports configuration errors.
func (c AdmitConfig) Validate() error {
	for i, cl := range c.Classes {
		if math.IsNaN(cl.RatePerSec) || math.IsInf(cl.RatePerSec, 0) {
			return fmt.Errorf("cluster: admission class %d rate %g must be finite", i, cl.RatePerSec)
		}
		if math.IsNaN(cl.Burst) || math.IsInf(cl.Burst, 0) || cl.Burst < 0 {
			return fmt.Errorf("cluster: admission class %d burst %g must be finite and >= 0", i, cl.Burst)
		}
	}
	return nil
}

// bucket is one class's live token bucket.
type bucket struct {
	rate   float64
	burst  float64
	queue  bool
	tokens float64
	last   simclock.Time
	primed bool
}

// admitState drives the configured buckets along virtual time.
type admitState struct {
	cfg     AdmitConfig
	buckets []bucket
}

func newAdmitState(cfg AdmitConfig) *admitState {
	s := &admitState{cfg: cfg, buckets: make([]bucket, len(cfg.Classes))}
	for i, cl := range cfg.Classes {
		b := bucket{rate: cl.RatePerSec, burst: cl.Burst, queue: cl.Queue}
		if b.burst == 0 {
			b.burst = math.Max(1, b.rate/10)
		}
		s.buckets[i] = b
	}
	return s
}

// admit runs one arrival at t through its class bucket. It returns the
// admission time (>= t; later only for queued classes), the bucket's
// token level after accrual and before this query's charge (-1 for
// unbucketed classes — the decision tracer's bucket-level signal), and
// whether the query was admitted at all. A queued admission that would
// land past the end of virtual time is an error naming the class and its
// rate. Arrivals must be offered in non-decreasing time order — the
// routing loop's natural order.
func (s *admitState) admit(class int, t simclock.Time) (simclock.Time, float64, bool, error) {
	if class < 0 || class >= len(s.buckets) {
		return t, -1, true, nil
	}
	b := &s.buckets[class]
	if b.rate <= 0 {
		return t, -1, true, nil
	}
	if !b.primed {
		// The bucket starts full at the first arrival it governs.
		b.tokens, b.last, b.primed = b.burst, t, true
	}
	if t > b.last {
		b.tokens = math.Min(b.burst, b.tokens+(t-b.last).Seconds()*b.rate)
		b.last = t
	}
	level := b.tokens
	if b.tokens >= 1 {
		b.tokens--
		return t, level, true, nil
	}
	if !b.queue {
		return 0, level, false, nil
	}
	// Delay admission until the missing fraction of a token accrues; the
	// accrued token is consumed on admission, so the bucket stays empty.
	// Accrual is measured from b.last — the point up to which tokens have
	// already been credited (a prior queued admission pushes it into the
	// future) — never from the arrival itself, so overlapping waits don't
	// double-count the same accrual window and queued admissions serialize
	// at 1/rate spacing.
	base := b.last
	if base < t {
		base = t
	}
	wait := ((1 - b.tokens) / b.rate) * float64(time.Second)
	if !(wait < float64(math.MaxInt64-base)) {
		return 0, level, false, fmt.Errorf("cluster: admission class %s at rate %g/s queues a query past the end of virtual time",
			s.cfg.className(class), b.rate)
	}
	at := base + simclock.Time(wait)
	b.tokens = 0
	b.last = at
	return at, level, true, nil
}

// className renders class i's report label.
func (c AdmitConfig) className(i int) string {
	if i >= 0 && i < len(c.Classes) && c.Classes[i].Name != "" {
		return c.Classes[i].Name
	}
	return fmt.Sprintf("class%d", i)
}
