package load

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"sort"

	"ringrpq/bench/oplog"
	"ringrpq/bench/oracle"
)

// durabilitySample is the number of touched edges looked up after the
// restart.
const durabilitySample = 50

// Durability is the outcome of mixed_rw's closing kill/restart check.
// SIGKILL takes the process, not the machine: the operating system's
// page cache survives it, so what this exercises is WAL replay and
// checkpoint loading, not whether fsync reached the device.
type Durability struct {
	LastAckedVersion uint64  `json:"last_acked_version"`
	RecoveredVersion uint64  `json:"recovered_version"`
	EdgesChecked     int     `json:"edges_checked"`
	EdgesWrong       int     `json:"edges_wrong"`
	RecoveryS        float64 `json:"recovery_s"`
}

// ackedVersion extracts the data version an /update reply acknowledged.
func ackedVersion(rep Reply) (uint64, bool) {
	var res struct {
		Version uint64 `json:"version"`
	}
	if !rep.OK || json.Unmarshal(rep.Body, &res) != nil {
		return 0, false
	}
	return res.Version, true
}

// durability kills rpqd, restarts it on the same WAL directory and
// requires every acknowledged update to be there: the data version must
// have reached the last acknowledged one, and a seed-drawn sample of
// the edges the batches touched must be present or absent exactly as
// the replayed map of edges says.
func (r *runner) durability(ctx context.Context, mp mixedPass, final *oracle.EdgeSet) error {
	r.srv.Kill()
	srv, err := r.start(ctx, false)
	if err != nil {
		return err
	}
	r.srv = srv
	d := &Durability{LastAckedVersion: mp.lastVersion, RecoveryS: srv.Setup.Seconds()}
	r.row.Durability = d

	st, err := FetchStats(srv.URL)
	if err != nil {
		return err
	}
	d.RecoveredVersion = st.Index.Updates.DataVersion
	if d.RecoveredVersion < d.LastAckedVersion {
		r.problem("recovered data version %d is behind the last acknowledged %d", d.RecoveredVersion, d.LastAckedVersion)
	}

	touched := map[oplog.Triple]bool{}
	for i, op := range r.ops {
		if op.Kind == oplog.Update && mp.replies[i].OK {
			for _, t := range op.Adds {
				touched[t] = true
			}
			for _, t := range op.Dels {
				touched[t] = true
			}
		}
	}
	edges := make([]oplog.Triple, 0, len(touched))
	for t := range touched {
		edges = append(edges, t)
	}
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.S != b.S {
			return a.S < b.S
		}
		if a.P != b.P {
			return a.P < b.P
		}
		return a.O < b.O
	})
	rng := rand.New(rand.NewSource(r.opt.Seed ^ 0xd07ab1e))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	if len(edges) > durabilitySample {
		edges = edges[:durabilitySample]
	}

	cl := NewClient(srv.URL, 1)
	defer cl.Close()
	var buf bytes.Buffer
	for _, t := range edges {
		rep := cl.Do(ctx, Request{Path: "/query", Body: oplog.Op{Kind: oplog.Query, Subject: t.S, Expr: t.P, Object: t.O}.Body(false)}, true, &buf)
		var res struct {
			Count int `json:"count"`
		}
		d.EdgesChecked++
		present := rep.OK && json.Unmarshal(rep.Body, &res) == nil && res.Count == 1
		if !rep.OK || present != final.Has(t) {
			d.EdgesWrong++
		}
	}
	if d.EdgesWrong > 0 {
		r.problem("%d of %d acknowledged edges are wrong after kill and restart", d.EdgesWrong, d.EdgesChecked)
	}
	return nil
}
