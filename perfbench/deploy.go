package main

import (
	"regexp"
	"strconv"
	"strings"
	"time"

	"asap/internal/eval"
)

// deploy: eval.RunScale, the function behind asapsim -scale. Every join,
// leave and call sits at a fixed virtual time (open loop in virtual
// time); the seed moves only retry jitter. At 5×10⁴ nodes per-node state
// dominates the run.
const (
	deployNodes  = 50_000
	deployShards = 2
	// deployCheckNodes sizes the set-up deployments, which also check
	// that the outcome digest is the same at 1 and 2 shards.
	deployCheckNodes = 5_000
)

func deployConfig(nodes, shards int, seed int64) eval.ScaleConfig {
	return eval.ScaleConfig{
		Nodes:          nodes,
		Shards:         shards,
		Calls:          max(40, nodes/200),
		Leavers:        max(8, nodes/500),
		Seed:           seed,
		RecordOutcomes: true,
	}
}

func runDeploy(c runConfig) (*result, error) {
	r := newResult()

	// Set-up: five small deployments at 2 shards, timed, then one at 1
	// shard; all six must produce the same outcome digest.
	var setups []float64
	var digest string
	for i := 0; i < 5; i++ {
		settle()
		start := time.Now()
		rep, err := eval.RunScale(deployConfig(deployCheckNodes, deployShards, c.seed))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == 0 {
			digest = rep.GoldenDigest()
		}
		r.check(rep.GoldenDigest() == digest, "deploy: GoldenDigest differs between repeated 2-shard runs")
	}
	one, err := eval.RunScale(deployConfig(deployCheckNodes, 1, c.seed))
	if err != nil {
		return nil, err
	}
	r.check(one.GoldenDigest() == digest, "deploy: GoldenDigest differs between 1 and 2 shards")
	r.setupS = median(setups)

	pr := newProbe(c.tr != nil)
	var rates []float64
	var first *eval.ScaleReport
	var given float64
	begin := time.Now()
	for len(rates) < 3 || time.Since(begin).Seconds() < c.seconds {
		if err := pr.begin(); err != nil {
			return nil, err
		}
		start := time.Now()
		rep, err := eval.RunScale(deployConfig(deployNodes, deployShards, c.seed))
		d := time.Since(start)
		if err := pr.end(); err != nil {
			return nil, err
		}
		if err != nil {
			return nil, err
		}
		given += pr.given(d)
		rates = append(rates, float64(deployNodes)/pr.given(d))
		if first == nil {
			first = rep
			continue
		}
		r.check(rep.Events == first.Events, "deploy: sim.events differs between runs of one seed: %d vs %d", rep.Events, first.Events)
		r.check(rep.GoldenDigest() == first.GoldenDigest(), "deploy: GoldenDigest differs between runs of one seed")
	}
	pr.finish(r, float64(deployNodes*len(rates)))
	r.work = median(rates)

	// Bytes per node needs forced GCs, so it gets its own untimed run.
	cfg := deployConfig(deployNodes, deployShards, c.seed)
	cfg.MeasureBytes = true
	settle()
	bytesRep, err := eval.RunScale(cfg)
	if err != nil {
		return nil, err
	}

	r.attempted = first.Calls
	for _, line := range first.Outcomes {
		if m := outcomeErr.FindStringSubmatch(line); m != nil && m[1] != `""` {
			cause, err := strconv.Unquote(m[1])
			if err != nil {
				cause = m[1]
			}
			r.fail(deployCause(cause))
		}
	}
	r.check(r.failed == first.Failed, "deploy: %d failed outcome lines but the report counts %d", r.failed, first.Failed)

	r.value("deploy_nodes_per_s", "nodes/s", r.work)
	r.value("deploy_bytes_per_node", "B", bytesRep.BytesPerNode)
	r.exact["sim.events"] = int64(first.Events)
	r.exact["sim.shards"] = int64(first.Shards)
	r.exact["deploy.calls"] = int64(first.Calls)
	r.exact["deploy.relayed"] = int64(first.Relayed)
	r.exact["deploy.failed"] = int64(first.Failed)
	r.layer["sim.events"] = float64(first.Events)
	r.layer["sim.shards"] = float64(first.Shards)
	r.layer["sim.events_per_node"] = float64(first.Events) / deployNodes
	r.layer["sim.ns_per_event"] = given * 1e9 / float64(len(rates)) / float64(first.Events)
	return r, nil
}

var outcomeErr = regexp.MustCompile(` err=(".*")$`)

// deployCause names a failed call's cause. The scale plan lets callees
// churn out ("dead callees are fair game"), so an unreachable callee is
// an expected outcome; anything else is reported by its message.
func deployCause(msg string) string {
	switch {
	case msg == "caller not joined":
		return "caller not joined"
	case strings.Contains(msg, "unreachable"):
		return "callee unreachable"
	}
	return msg
}
