package load

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"ringrpq/bench/oplog"
	"ringrpq/bench/oracle"
	"ringrpq/internal/triples"
)

// sampleSize is the number of answers verified per run.
const sampleSize = 200

// Checks is the outcome of a run's answer checking.
type Checks struct {
	Sampled    int `json:"answers_sampled"`
	Checked    int `json:"answers_checked"`
	Skipped    int `json:"answers_skipped"`
	Mismatched int `json:"answers_wrong"`
	// Reasons holds the first few mismatches, for the log.
	Reasons []string `json:"reasons,omitempty"`
}

func (c *Checks) add(v oracle.Verdict, op oplog.Op, why string) {
	c.Sampled++
	switch v {
	case oracle.OK:
		c.Checked++
	case oracle.Skipped:
		c.Skipped++
	default:
		c.Checked++
		c.Mismatched++
		if len(c.Reasons) < 5 {
			c.Reasons = append(c.Reasons, fmt.Sprintf("%s %s: %s", op.Kind.Path(), op.Body(false), why))
		}
	}
}

// Passed reports whether the run's answers count as verified: no wrong
// answer, and at least half of the sample actually checked.
func (c Checks) Passed() bool {
	return c.Mismatched == 0 && 2*c.Checked >= c.Sampled && c.Sampled > 0
}

// sampleOf picks k distinct indices of [0, n) from the seed.
func sampleOf(n, k int, seed int64) map[int]bool {
	rng := rand.New(rand.NewSource(seed ^ 0x0c4ec))
	out := map[int]bool{}
	for _, i := range rng.Perm(n) {
		if len(out) == k {
			break
		}
		out[i] = true
	}
	return out
}

// checkReply decodes one response body and holds it against the oracle.
func checkReply(or *oracle.Oracle, op oplog.Op, body []byte) (oracle.Verdict, string) {
	switch op.Kind {
	case oplog.Query:
		var res struct {
			Solutions []struct {
				Subject string `json:"subject"`
				Object  string `json:"object"`
			} `json:"solutions"`
			Count int `json:"count"`
		}
		if err := json.Unmarshal(body, &res); err != nil {
			return oracle.Mismatch, "undecodable response: " + err.Error()
		}
		if res.Count != len(res.Solutions) {
			return oracle.Mismatch, fmt.Sprintf("count %d with %d solutions", res.Count, len(res.Solutions))
		}
		got := make([]oracle.Pair, len(res.Solutions))
		for i, s := range res.Solutions {
			got[i] = oracle.Pair{S: s.Subject, O: s.Object}
		}
		return or.CheckQuery(op, got, oracle.CheckBudget)
	case oplog.Select:
		var res struct {
			Vars  []string   `json:"vars"`
			Rows  [][]string `json:"rows"`
			Count int        `json:"count"`
		}
		if err := json.Unmarshal(body, &res); err != nil {
			return oracle.Mismatch, "undecodable response: " + err.Error()
		}
		if res.Count != len(res.Rows) {
			return oracle.Mismatch, fmt.Sprintf("count %d with %d rows", res.Count, len(res.Rows))
		}
		return or.CheckSelect(op, res.Vars, res.Rows, oracle.CheckBudget)
	}
	return oracle.Skipped, ""
}

// checkStatic verifies the retained bodies of a read-only run, all
// against the one graph state, on every core (rpqd is idle by then).
// A Zipf log samples its popular queries many times over; identical
// answers to identical requests are verified once and counted each.
func checkStatic(or *oracle.Oracle, ops []oplog.Op, replies []Reply) Checks {
	type verdict struct {
		v   oracle.Verdict
		why string
	}
	groups := map[string][]int{} // request body + response body → op indices
	for i, r := range replies {
		if r.Body != nil && r.OK {
			key := string(ops[i].Body(false)) + "\x00" + string(r.Body)
			groups[key] = append(groups[key], i)
		}
	}
	work := make(chan []int)
	var mu sync.Mutex
	var c Checks
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range work {
				v, why := checkReply(or, ops[idx[0]], replies[idx[0]].Body)
				mu.Lock()
				for _, i := range idx {
					c.add(v, ops[i], why)
				}
				mu.Unlock()
			}
		}()
	}
	for _, idx := range groups {
		work <- idx
	}
	close(work)
	wg.Wait()
	return c
}

// epochSample picks the reads of a mixed log to verify. The graph
// changes at every update, and indexing a state costs far more than
// checking an answer against it, so whole epochs (the reads between two
// consecutive updates, which all see one state) are drawn from the seed
// until they hold sampleSize reads.
func epochSample(ops []oplog.Op, seed int64) map[int]bool {
	var epochs [][]int
	cur := []int{}
	for i, op := range ops {
		if op.Kind == oplog.Update {
			epochs = append(epochs, cur)
			cur = []int{}
			continue
		}
		cur = append(cur, i)
	}
	epochs = append(epochs, cur)
	rng := rand.New(rand.NewSource(seed ^ 0x0c4ec))
	out := map[int]bool{}
	for _, e := range rng.Perm(len(epochs)) {
		if len(out) >= sampleSize {
			break
		}
		for _, i := range epochs[e] {
			out[i] = true
		}
	}
	return out
}

// checkMixed replays the acknowledged batches of a mixed run into a
// map of edges and verifies each sampled read against the state it was
// answered from. It returns the final state for the durability check.
func checkMixed(g *triples.Graph, ops []oplog.Op, replies []Reply) (Checks, *oracle.EdgeSet) {
	var c Checks
	es := oracle.NewEdgeSet(g)
	var or *oracle.Oracle // index of the current state, built on demand
	for i, op := range ops {
		if op.Kind == oplog.Update {
			if replies[i].OK {
				es.Apply(op.Adds, op.Dels)
				or = nil
			}
			continue
		}
		if replies[i].Body == nil || !replies[i].OK {
			continue
		}
		if or == nil {
			or = es.Oracle()
		}
		v, why := checkReply(or, op, replies[i].Body)
		c.add(v, op, why)
	}
	return c, es
}
