package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one scheduled request: when it is due and which key it asks.
type arrival struct {
	due time.Duration
	key int
}

// schedule draws an open-loop arrival schedule: Poisson arrivals at rate
// per second for dur, keys Zipf-distributed over the permuted key order.
func (b *bench) schedule(rate float64, dur time.Duration, perm []int) []arrival {
	cdf := make([]float64, len(perm))
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -zipfS)
		cdf[i] = sum
	}
	var out []arrival
	for t := 0.0; ; {
		t += b.rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		rank := sort.SearchFloat64s(cdf, b.rng.Float64()*sum)
		if rank >= len(perm) {
			rank = len(perm) - 1
		}
		out = append(out, arrival{due: time.Duration(t * float64(time.Second)), key: perm[rank]})
	}
}

// sample is one request of the open loop.
type sample struct {
	latency time.Duration // from the intended send time
	lag     time.Duration // how late the generator sent it
	service time.Duration // from the actual send time
	reply
	err    error
	reason string
}

// runWindow sends one window's schedule over conns connections. A request
// due while both connections are busy waits, and its latency counts that
// wait: each latency runs from the intended send time. Every response is
// checked against the key's warm answer.
func (b *bench) runWindow(c *client, bodies [][]byte, expect []answers, sched []arrival) []sample {
	out := make([]sample, len(sched))
	var span time.Duration
	if n := len(sched); n > 0 {
		span = sched[n-1].due
	}
	ctx, stop := startGuard(context.Background(), span+opDeadline)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				due := start.Add(a.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				rctx, cancel := context.WithTimeout(ctx, opDeadline)
				ans, rep, err := c.query(rctx, bodies[a.key])
				cancel()
				end := time.Now()
				s := sample{latency: end.Sub(due), lag: sent.Sub(due), service: end.Sub(sent), reply: rep, err: err}
				if err == nil {
					if derr := ans.diff(expect[a.key]); derr != nil {
						s.err, s.reason = derr, "wrong-answer"
					}
				}
				out[i] = s
			}
		}()
	}
	wg.Wait()
	reason := stop()
	for i := range out {
		s := &out[i]
		if s.err == nil || s.reason != "" {
			continue
		}
		var he httpError
		switch {
		case reason != "":
			s.reason = reason
		case errors.As(s.err, &he):
			s.reason = fmt.Sprintf("http-%d", he.status)
		case errors.Is(s.err, context.DeadlineExceeded):
			s.reason = "deadline"
		default:
			s.reason = "error"
		}
	}
	return out
}

// meetsLimit reports whether a window met the latency limit: at least 99%
// of its requests (failures count as misses) finished within sloP99 of
// their due time, and no backlog built up, that is its last tenth was sent,
// at the median, within sloP99 of its due times. An offered rate above
// capacity fails the second test, since every request then waits longer
// than the one before.
func meetsLimit(samples []sample) bool {
	within := 0
	for _, s := range samples {
		if s.err == nil && s.latency <= sloP99 {
			within++
		}
	}
	var tail []float64
	for _, s := range samples[len(samples)*9/10:] {
		tail = append(tail, ms(s.lag))
	}
	return float64(within) >= 0.99*float64(len(samples)) && percentile(tail, 50) <= ms(sloP99)
}

// loadStats summarizes the requests of one offered rate. Latencies are in
// ms over the successful requests; hits counts the successful requests the
// cache answered, searched those that ran a search of their own.
type loadStats struct {
	p50, p99, serviceP99, lagP50, lagP99 float64
	requests, hits, searched, failed     int
}

func summarize(samples []sample) loadStats {
	st := loadStats{requests: len(samples)}
	var lats, lags, svcs []float64
	for _, s := range samples {
		if s.err != nil {
			st.failed++
			continue
		}
		lats = append(lats, ms(s.latency))
		lags = append(lags, ms(s.lag))
		svcs = append(svcs, ms(s.service))
		switch {
		case s.cached:
			st.hits++
		case !s.coalesced:
			st.searched++
		}
	}
	st.p50, st.p99 = percentile(lats, 50), percentile(lats, 99)
	st.serviceP99 = percentile(svcs, 99)
	st.lagP50, st.lagP99 = percentile(lags, 50), percentile(lags, 99)
	return st
}

// account counts a batch of open-loop requests as operations.
func (b *bench) account(op string, samples []sample) {
	for _, s := range samples {
		b.attempted++
		if s.err != nil {
			b.fail(op, s.reason, s.err.Error())
		}
	}
}
