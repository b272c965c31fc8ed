package load

import (
	"context"
	"syscall"
	"time"

	"ringrpq/bench/stat"
)

// A shared 2-core box does not run at one speed. Identical passes over
// one op log against one rpqd, minutes apart, differ by up to 1.8× in
// wall time, and rpqd's CPU time per op inflates by the same factor: the
// slowdown comes from outside the VM (neighbours on the host), arrives
// in spells that outlast a run, and no choice of passes or medians
// inside a run removes it. Ten runs as measured spread 20–50 % on every
// timing metric, and the benchmark's own rule is that a metric whose
// runs spread wider than its bound (at most 25 %) resolves nothing.
//
// What tracks a spell is the harness itself: it is on the same box at
// the same moments, it sends and receives the same bytes in every pass,
// and its own CPU time per request rises and falls with the pass's wall
// time (correlation 0.93–0.99 over 40–60 back-to-back passes; dividing
// by it took the interquartile spread of a pass's wall time from 31 % to
// 4 % on rpq_cached and from 7 % to 3 % on rpq_static). Fixed work in
// a thread of its own does not: a compute loop is not slowed at all, and
// pipe and memory-walk loops timed by thread CPU correlate with rpqd's
// CPU 0.86–0.97 in one spell and 0.56 in the next. So every timed pass is metered:
// the harness's CPU per request over the workload's reference value is
// the pass's slowdown, and every time measured in the pass is divided by
// it. The reference (MeterRefUS in workloads.go) is what the harness
// needs per request on this box when nothing interferes. It only anchors
// the scale, so that a reported millisecond is a millisecond at that
// speed; any other constant compares two commits the same way, on any
// box, and it cannot be taken during a run, because a run has no quiet
// moment to take it in.
//
// That meter needs requests that are short and many. pattern_select's are
// few and long (263 a pass, 10 ms each): the harness spends 60 ms of CPU
// in a pass, nearly all of it waking from a long sleep, and over 400
// passes that tracked rpqd's CPU per op with a correlation of 0.57–0.84
// and steadied nothing (spread of a pass's rpqd CPU 10–13 % as measured,
// 11–13 % metered). There the meter is reference work (refwork.go): each
// connection, after every reply, does a third of a millisecond of fixed
// work of rpqd's kind, so the box is sampled every 10 ms at the moments
// between the server's own work, and the pass's reading is the mean of
// the middle half of those times. Over 190 passes that correlated 0.86
// (one connection) and 0.93 (two) with rpqd's CPU per op, in proportion
// (log-log slope 1.05–1.09), and took the spread of a pass's rpqd CPU
// from 9–13 % to 4–5 %. It is not the fixed work in a thread of its own
// that failed above: it runs in the gaps of the very request stream it
// meters, not beside it.
//
// The price is that a metered time is not independent of the server.
// Most of the harness's CPU per request is not writing and reading but
// going to sleep and waking up again, and on this VM that costs more the
// longer the sleep was (36 µs per request against a stub that answers
// at once, 90 µs when it answers after 1.4 ms, 115 µs after 5.6 ms, with
// a blocking read on a locked thread; net/http's transport adds its own
// to each). A server that gets slower therefore raises the slowdown
// measured beside it, and metering gives back part of the change: with
// every rpq_static evaluation executed twice in rpqd, eight alternating
// pairs of runs read ×1.49 on read_p50_ms and ×1.89 on cpu_ms_per_op as
// measured and ×1.33 and ×1.56 metered, the pair ratios spreading 13 %
// as measured and 3–5 % metered. A metered ratio has the right sign and
// about two thirds of the size, gains and regressions alike; every row
// also carries the times as measured (as_measured), and -compare prints
// both ratios. A commit that changes the bytes of a response changes the
// harness's work per request as well (http.bytes_per_response shows it).
// Reference work is not coupled to the server that way, because what it
// costs does not depend on how long the reply took: with every graph
// pattern evaluated twice in rpqd, eight alternating pairs of
// pattern_select runs read ×1.91 on cpu_ms_per_op as measured and ×1.87
// metered (pair ratios spreading 14 % and 5 %), and the reference work
// took 2 % longer. It adds a third of a millisecond of client think time
// per request, the same on every commit.
// Set-up has no requests to meter, so setup_s is as measured, and so is
// every time of a traced run.

// metered is one timed pass and what it cost both sides.
type metered struct {
	replies []Reply
	wall    time.Duration // as measured
	server  time.Duration // rpqd's CPU, as measured
	// slowdown is the harness's CPU per request over its reference: how
	// much slower than the reference speed the box ran during the pass.
	slowdown float64
}

// ms converts a duration measured during the pass into milliseconds at
// the reference speed.
func (m metered) ms(d time.Duration) float64 { return float64(d) / 1e6 / m.slowdown }

// selfCPU is the user+system CPU time of this process.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter runs one pass (see Client.Pass) and measures the harness's and
// rpqd's CPU across it. refUS is the meter's reference in microseconds
// for this kind of pass: of the harness's CPU per request, or, for a
// client that interleaves reference work, of one piece of that work.
func (r *runner) meter(ctx context.Context, cl *Client, reqs []Request, conns int, keep func(int) bool, refUS float64) (metered, error) {
	srv0, err := r.srv.CPU()
	if err != nil {
		return metered{}, err
	}
	for _, w := range cl.ref {
		w.took = w.took[:0]
	}
	self0 := selfCPU()
	replies, wall := cl.Pass(ctx, reqs, conns, keep)
	self := selfCPU() - self0
	srv1, err := r.srv.CPU()
	if err != nil {
		return metered{}, err
	}
	m := metered{replies: replies, wall: wall, server: srv1 - srv0, slowdown: 1}
	p := &r.row.Provenance
	perReqUS := float64(self) / 1e3 / float64(len(reqs))
	reading := perReqUS
	if cl.ref != nil {
		var took []float64
		for _, w := range cl.ref {
			took = append(took, w.took...)
		}
		reading = stat.MidMean(took)
		p.RefWorkUS = append(p.RefWorkUS, round3(reading))
	}
	if reading > 0 && refUS > 0 {
		m.slowdown = reading / refUS
	}
	r.count(replies)
	p.ClientCPUUS = append(p.ClientCPUUS, round3(perReqUS))
	p.Slowdown = append(p.Slowdown, round3(m.slowdown))
	p.PassWallMS = append(p.PassWallMS, round3(float64(wall)/1e6))
	p.PassServerCPUMS = append(p.PassServerCPUMS, round3(float64(m.server)/1e6))
	return m, nil
}

func round3(x float64) float64 { return float64(int64(x*1000+0.5)) / 1000 }
