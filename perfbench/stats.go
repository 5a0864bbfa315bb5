package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// classRec collects one request class of one client in one window:
// the latency of every completed request, and how many were attempted
// and failed. With a reference, ratios holds each completed request's
// latency over the reference round trip that followed it.
type classRec struct {
	samples           []time.Duration
	ratios            []float64
	attempted, failed int64
	// err is the first failure, kept for the report.
	err error
}

// recorder collects the requests of one client in one window. Each
// client owns its recorder, so recording takes no lock.
type recorder struct {
	classes map[string]*classRec
	// events counts ingested events whose batch was acknowledged.
	events int64
	// ref, when set, is timed right after every completed request;
	// refTime is the time spent in its round trips and refErr its first
	// failure.
	ref     *reference
	refTime time.Duration
	refErr  error
}

// sink is where a client records its requests: a recorder, or in the
// counting pass a metered recorder.
type sink interface {
	begin() time.Time
	end(class string, t0 time.Time, err error)
	addEvents(n int)
}

func newRecorder(ref *reference) *recorder {
	return &recorder{classes: map[string]*classRec{}, ref: ref}
}

// begin marks the start of a request.
func (r *recorder) begin() time.Time { return time.Now() }

// end records one request of class that started at t0. A failed
// request counts as attempted and failed and gives no latency sample.
func (r *recorder) end(class string, t0 time.Time, err error) {
	d := time.Since(t0)
	c := r.classes[class]
	if c == nil {
		c = &classRec{}
		r.classes[class] = c
	}
	c.attempted++
	if err != nil {
		if c.failed == 0 {
			c.err = err
		}
		c.failed++
		return
	}
	c.samples = append(c.samples, d)
	if r.ref == nil {
		return
	}
	x, err := r.ref.roundTrip()
	r.refTime += x
	if err != nil {
		if r.refErr == nil {
			r.refErr = err
		}
		return
	}
	c.ratios = append(c.ratios, float64(d)/float64(x))
}

// addEvents counts n acknowledged ingested events.
func (r *recorder) addEvents(n int) { r.events += int64(n) }

// merge folds several recorders into one.
func merge(recs ...*recorder) *recorder {
	out := newRecorder(nil)
	for _, r := range recs {
		out.events += r.events
		out.refTime += r.refTime
		if out.refErr == nil {
			out.refErr = r.refErr
		}
		for name, c := range r.classes {
			o := out.classes[name]
			if o == nil {
				o = &classRec{}
				out.classes[name] = o
			}
			o.attempted += c.attempted
			if o.failed == 0 {
				o.err = c.err
			}
			o.failed += c.failed
			o.samples = append(o.samples, c.samples...)
			o.ratios = append(o.ratios, c.ratios...)
		}
	}
	return out
}

func (r *recorder) totals() (attempted, failed, completed int64) {
	for _, c := range r.classes {
		attempted += c.attempted
		failed += c.failed
		completed += int64(len(c.samples))
	}
	return
}

// requireClean fails a run in which a request failed or one of the
// need classes completed no request. A healthy run fails no request:
// clients never conflict on a commit, the typed client does not retry,
// and clients that take turns cannot fill an ingest lane. A class
// without samples would report a latency of 0, the best value there is.
func requireClean(r *recorder, need []string) error {
	if r.refErr != nil {
		return fmt.Errorf("reference round trip: %w", r.refErr)
	}
	for _, class := range classes {
		if c := r.classes[class]; c != nil && c.failed > 0 {
			return fmt.Errorf("%d of %d %s requests failed, first: %w", c.failed, c.attempted, class, c.err)
		}
	}
	for _, class := range need {
		if c := r.classes[class]; c == nil || len(c.samples) == 0 {
			return fmt.Errorf("no %s request completed", class)
		}
	}
	return nil
}

// pick returns the samples of class from the window, or from the side
// probe when the window's mix leaves the class out.
func pick(win, probe *recorder, class string) *classRec {
	if c := win.classes[class]; c != nil && len(c.samples) > 0 {
		return c
	}
	if c := probe.classes[class]; c != nil {
		return c
	}
	return &classRec{}
}

// durations returns the latency samples of one class in milliseconds.
func (c *classRec) durations() []float64 {
	out := make([]float64, len(c.samples))
	for i, d := range c.samples {
		out[i] = ms(d)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
// Every median of the benchmark is quantile(xs, 0.5).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
