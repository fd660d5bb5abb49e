// Package load is a deterministic discrete-event load generator: it
// drives a harness.System with N simulated concurrent clients on the
// simulated clock, so statement costs add up to latency-under-load
// curves instead of isolated per-statement sums. Two arrival processes
// are modeled, both drawn from one seeded RNG:
//
//   - Closed loop: a fixed client population; each client issues a
//     transaction, waits for its simulated response, thinks for an
//     exponential think time, and issues the next. Offered load is
//     governed by the population size and self-throttles as latency
//     grows — the classic benchmark-client shape.
//   - Open: transactions arrive in a Poisson-style stream at a fixed
//     rate regardless of completions — the internet-traffic shape that
//     drives a saturated system's queues unboundedly.
//
// Concurrency is simulated, not executed: an event loop pops arrivals
// in simulated-time order and runs each transaction to completion
// against the system, advancing the per-node service queues' arrival
// clock (backend.NodeQueues.SetNow) as it goes. Overlap between
// in-flight transactions is captured entirely by those queues — a
// transaction arriving while a node is busy is charged the queue wait.
// Because the loop is single-threaded over seeded draws, a run is a
// pure function of (system, transactions, options): byte-identical at
// any advisor worker count and across reruns with the same seed.
package load

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"nose/internal/backend"
	"nose/internal/executor"
	"nose/internal/harness"
	"nose/internal/workload"
)

// Transaction is one weighted unit of client work: the statements
// execute in order as a single user interaction.
type Transaction struct {
	// Name labels the transaction in errors and selects its parameters.
	Name string
	// Statements execute sequentially; their simulated times add.
	Statements []workload.Statement
	// Weight is the transaction's relative share of the mix; entries
	// with non-positive weight are excluded.
	Weight float64
}

// ParamFunc supplies parameter bindings for one execution of the named
// transaction. It is called once per arrival, in deterministic event
// order, so a seeded stateful source (e.g. rubis.ParamSource) keeps
// runs reproducible.
type ParamFunc func(txn string) executor.Params

// Options shapes a load run.
type Options struct {
	// Clients is the closed-loop client population. Ignored in open
	// mode.
	Clients int
	// ThinkMillis is the closed-loop mean think time between a
	// response and the client's next request (exponential draw).
	// Zero means no think time: clients re-issue immediately.
	ThinkMillis float64
	// Open switches to open arrivals at ArrivalPerSec.
	Open bool
	// ArrivalPerSec is the open-mode arrival rate, in transactions per
	// simulated second.
	ArrivalPerSec float64
	// HorizonMillis is the simulated duration of the run: arrivals at
	// or beyond the horizon are not admitted. Transactions in flight
	// at the horizon run to completion and are measured.
	HorizonMillis float64
	// WarmupMillis excludes the run's first arrivals from the measured
	// statistics (they still execute and heat the queues).
	WarmupMillis float64
	// Seed drives every think-time, interarrival and mix draw.
	Seed int64
}

// Result is one load run's measurements. All times are simulated
// milliseconds; throughput is per simulated second.
type Result struct {
	// Started counts transactions admitted before the horizon;
	// Completed, Unavailable and Lost partition them: completed
	// normally, failed with harness.ErrUnavailable (every plan down or
	// refused), or failed with harness.ErrNoPlan (lost writes).
	Started, Completed, Unavailable, Lost int64
	// Measured counts the completed transactions inside the
	// measurement window (arrival at or after WarmupMillis).
	Measured int64
	// ThroughputPerSec is Measured over the post-warmup horizon.
	ThroughputPerSec float64
	// P50Millis/P99Millis/MeanMillis/MaxMillis summarize measured
	// transaction response times (queue delay included).
	P50Millis, P99Millis, MeanMillis, MaxMillis float64
	// QueueDelayMillis is the total queue wait charged across nodes;
	// MaxUtilization is the busiest node's service utilization over
	// the horizon; MaxDepth is the deepest arrival-time queue observed
	// on any node. Zero when the system has no queues attached.
	QueueDelayMillis float64
	MaxUtilization   float64
	MaxDepth         int
}

// event is one pending arrival in the simulated-time heap.
type event struct {
	at     float64
	seq    int64 // tie-break: insertion order keeps the heap total
	client int   // closed-loop client index; -1 for open arrivals
}

// eventHeap is a plain binary min-heap ordered by (at, seq).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// Run executes one load run against the system. q may be nil (no
// service contention — the infinite-capacity baseline); when set it
// must be the queues attached to the system's coordinator, and Run
// owns its clock for the duration. Statement errors other than
// harness.ErrUnavailable and harness.ErrNoPlan abort the run.
func Run(sys *harness.System, txns []Transaction, params ParamFunc, q *backend.NodeQueues, opts Options) (*Result, error) {
	if opts.HorizonMillis <= 0 {
		return nil, errors.New("load: HorizonMillis must be positive")
	}
	if opts.WarmupMillis < 0 || opts.WarmupMillis >= opts.HorizonMillis {
		return nil, fmt.Errorf("load: WarmupMillis %g outside [0, horizon)", opts.WarmupMillis)
	}
	if opts.Open {
		if opts.ArrivalPerSec <= 0 {
			return nil, errors.New("load: open mode needs ArrivalPerSec > 0")
		}
	} else if opts.Clients <= 0 {
		return nil, errors.New("load: closed mode needs Clients > 0")
	}
	active := make([]Transaction, 0, len(txns))
	totalWeight := 0.0
	for _, t := range txns {
		if t.Weight > 0 {
			active = append(active, t)
			totalWeight += t.Weight
		}
	}
	if len(active) == 0 {
		return nil, errors.New("load: no transaction with positive weight")
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	res := &Result{}
	var latencies []float64
	var heap eventHeap
	seq := int64(0)
	push := func(at float64, client int) {
		heap.push(event{at: at, seq: seq, client: client})
		seq++
	}

	if opts.Open {
		perMs := opts.ArrivalPerSec / 1000.0
		push(rng.ExpFloat64()/perMs, -1)
	} else {
		// Stagger the population's first requests across one mean think
		// time so the run does not start with a synchronized burst.
		for c := 0; c < opts.Clients; c++ {
			first := 0.0
			if opts.ThinkMillis > 0 {
				first = rng.ExpFloat64() * opts.ThinkMillis
			}
			push(first, c)
		}
	}

	for len(heap) > 0 {
		e := heap.pop()
		if e.at >= opts.HorizonMillis {
			// Past the horizon: the stream (or client) retires.
			continue
		}
		if opts.Open && e.client == -1 {
			perMs := opts.ArrivalPerSec / 1000.0
			push(e.at+rng.ExpFloat64()/perMs, -1)
		}

		// Weighted mix draw, then one parameter binding for the whole
		// transaction, as the figure harnesses do.
		pick := rng.Float64() * totalWeight
		txn := active[len(active)-1]
		for _, t := range active {
			if pick < t.Weight {
				txn = t
				break
			}
			pick -= t.Weight
		}
		ps := params(txn.Name)

		res.Started++
		t := e.at
		failed := error(nil)
		for _, st := range txn.Statements {
			if q != nil {
				q.SetNow(t)
			}
			ms, err := sys.ExecStatement(st, ps)
			t += ms
			if err != nil {
				failed = err
				break
			}
		}
		switch {
		case failed == nil:
			res.Completed++
			if e.at >= opts.WarmupMillis {
				res.Measured++
				latencies = append(latencies, t-e.at)
			}
		case errors.Is(failed, harness.ErrUnavailable):
			res.Unavailable++
		case errors.Is(failed, harness.ErrNoPlan):
			res.Lost++
		default:
			return nil, fmt.Errorf("load: %s at t=%.3fms: %w", txn.Name, e.at, failed)
		}

		if !opts.Open {
			next := t
			if opts.ThinkMillis > 0 {
				next += rng.ExpFloat64() * opts.ThinkMillis
			}
			push(next, e.client)
		}
	}

	window := opts.HorizonMillis - opts.WarmupMillis
	res.ThroughputPerSec = float64(res.Measured) / (window / 1000.0)
	if len(latencies) > 0 {
		sum := 0.0
		for _, l := range latencies {
			sum += l
			if l > res.MaxMillis {
				res.MaxMillis = l
			}
		}
		res.MeanMillis = sum / float64(len(latencies))
		sort.Float64s(latencies)
		res.P50Millis = Percentile(latencies, 0.50)
		res.P99Millis = Percentile(latencies, 0.99)
	}
	if q != nil {
		for n := 0; n < q.NodeCount(); n++ {
			st := q.Stats(n)
			res.QueueDelayMillis += st.DelayMillis
			if st.DepthMax > res.MaxDepth {
				res.MaxDepth = st.DepthMax
			}
			if u := q.Utilization(n, opts.HorizonMillis); u > res.MaxUtilization {
				res.MaxUtilization = u
			}
		}
		q.Publish(opts.HorizonMillis)
	}
	return res, nil
}

// Percentile returns the q-quantile of the sorted values using the
// nearest-rank method — deterministic, no interpolation.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
