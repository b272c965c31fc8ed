package load

import (
	"bytes"
	"context"
	"sync"
	"time"

	"ringrpq/bench/stat"
)

// openLoopWorkers is the number of connections the open-loop phase may
// hold at once: far more than the schedule needs while the server keeps
// up, so that a stall shows as latency from the due time instead of
// slowing the arrivals down.
const openLoopWorkers = 32

// openLoop sends reqs, cycled, on a fixed schedule: request k is due at
// start + k/rate whether or not earlier ones have returned. Each
// request's latency runs from its due time, which charges a stall to
// every request it delays, and the generator reports how late it ran.
func (r *runner) openLoop(ctx context.Context, reqs []Request, rate float64, d time.Duration) {
	cl := NewClient(r.srv.URL, openLoopWorkers)
	defer cl.Close()
	total := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)

	type due struct {
		k  int
		at time.Time
	}
	// Buffered to the number of sends: the schedule never blocks on the
	// workers, it only falls behind its own clock.
	queue := make(chan due, total)
	latMS := make([]float64, total)
	lateMS := make([]float64, total)
	var wg sync.WaitGroup
	var failed int
	var mu sync.Mutex
	for w := 0; w < openLoopWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for q := range queue {
				lateMS[q.k] = float64(time.Since(q.at)) / 1e6
				rep := cl.Do(ctx, reqs[q.k%len(reqs)], false, &buf)
				latMS[q.k] = float64(rep.Start.Add(rep.Latency).Sub(q.at)) / 1e6
				if !rep.OK {
					mu.Lock()
					failed++
					mu.Unlock()
				}
			}
		}()
	}
	start := time.Now()
	for k := 0; k < total && ctx.Err() == nil; k++ {
		at := start.Add(time.Duration(k) * interval)
		time.Sleep(time.Until(at))
		queue <- due{k, at}
	}
	close(queue)
	wg.Wait()
	backlog := time.Since(start.Add(time.Duration(total) * interval))

	r.row.Attempted += total
	r.row.Failed += failed
	lat, late := stat.Sorted(latMS), stat.Sorted(lateMS)
	r.set("service.open_p50_ms", stat.Percentile(lat, 50), "ms")
	r.set("service.open_p99_ms", stat.Percentile(lat, 99), "ms")
	r.set("gen.late_p99_ms", stat.Percentile(late, 99), "ms")
	r.set("gen.backlog_s", max(0, backlog.Seconds()), "s")
}
