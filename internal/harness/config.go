package harness

import (
	"errors"
	"fmt"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/executor"
	"nose/internal/faults"
	"nose/internal/journal"
	"nose/internal/obs"
	"nose/internal/search"
	"nose/internal/verify"
)

// Config declares a system: what it serves, where its data comes from,
// and every layer between the executor and the records. New builds the
// layer stack from it once; nothing re-layers a system afterwards, so
// two incarnations of one simulated process — before and after a crash
// — are layered alike because they are declared alike.
//
// Exactly one of Dataset, Store and Repl names the data.
type Config struct {
	// Name labels the system in reports (e.g. "NoSE", "Normalized").
	Name string
	// Rec is the recommendation whose plans the system serves. Over a
	// surviving store it must be the one the crashed incarnation served,
	// so the plans match the installed families.
	Rec *search.Recommendation
	// Latency parameterizes the simulated store and the executor's
	// client-side charges.
	Latency cost.Params

	// Dataset makes a fresh install: every column family of Rec's schema
	// is created and loaded from it, on one store or — with Replication —
	// on every partition's ring replicas.
	Dataset *backend.Dataset
	// Store is a single store that survived a simulated crash. Its
	// contents are taken as they are and nothing is installed; run
	// Recover afterwards to finish or roll back an interrupted live
	// migration.
	Store *backend.Store
	// Repl is a replicated cluster that survived a simulated crash, taken
	// as it is like Store. Its coordinator is built fresh: in-memory hint
	// queues die with the process, which is the restart semantics hinted
	// handoff has in real stores — replicas that missed writes stay stale
	// until read repair finds them. Requires Replication, of which only
	// the consistency levels and hedge policy are used; the cluster shape
	// comes from Repl itself.
	Repl *backend.ReplicatedStore

	// Replication makes the system a cluster behind a quorum coordinator;
	// nil means a single store.
	Replication *ReplicationConfig

	// FamilyWeather injects seeded faults per column family above the
	// store or coordinator; nil means none. Faults returns the injector
	// for per-family profiles and down marks.
	FamilyWeather *FamilyWeather
	// NodeWeather injects seeded faults per node inside the coordinator;
	// nil means a healthy cluster. Requires Replication. NodeFaults
	// returns the fault set for per-node profiles and down marks.
	NodeWeather *NodeWeather

	// Verifier is the invariant oracle VerifyCheck runs. Its tap sees
	// every acknowledged write. Crash experiments pass the same verifier
	// to every incarnation of a system: it is the cross-crash memory of
	// what was acknowledged.
	Verifier *verify.Verifier
	// Journal is the migration journal StartLiveMigration writes through
	// and Recover appends its decisions to. A restarted incarnation gets
	// the journal journal.Open returned over the crashed one's durable
	// bytes.
	Journal *journal.Journal
	// Crashes arms the coordinator's hinted-handoff and read-repair crash
	// points. Pass the set the journal was built with, so one armed index
	// kills the whole simulated process whichever site reaches it first.
	// A single store has no crash points of its own.
	Crashes *faults.Crashes
}

// FamilyWeather is a seeded per-column-family fault stream.
type FamilyWeather struct {
	Seed int64
	// Profile applies to every family without a profile of its own; the
	// zero profile is transparent until a family is marked down.
	Profile faults.Profile
}

// NodeWeather is a seeded per-node fault stream.
type NodeWeather struct {
	Seed int64
	// Profile applies to every node without a profile of its own; the
	// zero profile is healthy until a node is marked down.
	Profile faults.NodeProfile
}

// ReplicationConfig shapes a replicated system: cluster size,
// replication factor, and the consistency levels its coordinator
// enforces.
type ReplicationConfig struct {
	// Nodes is the cluster size; zero means DefaultReplicationNodes.
	Nodes int
	// RF is the replication factor; zero means DefaultReplicationFactor
	// (clamped to Nodes).
	RF int
	// Read and Write are the coordinator's consistency levels.
	Read, Write executor.Consistency
	// Hedge configures speculative reads.
	Hedge executor.HedgePolicy
}

// Default replication shape: a small cluster with the RF the paper's
// target systems ship as their availability default.
const (
	DefaultReplicationNodes  = 5
	DefaultReplicationFactor = 3
)

// Normalized fills replication defaults.
func (c ReplicationConfig) Normalized() ReplicationConfig {
	if c.Nodes <= 0 {
		c.Nodes = DefaultReplicationNodes
	}
	if c.RF <= 0 {
		c.RF = DefaultReplicationFactor
	}
	return c
}

// validate reports the first way cfg contradicts itself.
func (cfg Config) validate() error {
	sources := 0
	for _, set := range []bool{cfg.Dataset != nil, cfg.Store != nil, cfg.Repl != nil} {
		if set {
			sources++
		}
	}
	switch {
	case cfg.Rec == nil:
		return errors.New("config has no recommendation to serve")
	case sources == 0:
		return errors.New("config names no data: set Dataset for a fresh install, or Store or Repl to restart over a survivor")
	case sources > 1:
		return errors.New("config names more than one source of data: set exactly one of Dataset, Store and Repl")
	case cfg.Repl != nil && cfg.Replication == nil:
		return errors.New("config restarts over a surviving cluster without Replication: the coordinator needs its consistency levels")
	case cfg.Store != nil && cfg.Replication != nil:
		return errors.New("config sets Replication over a surviving single store: a cluster restarts from Repl")
	case cfg.NodeWeather != nil && cfg.Replication == nil:
		return errors.New("config declares node weather without Replication: node fault domains exist only on a cluster")
	}
	return nil
}

// New builds the system cfg declares. It is the one place the data
// plane is assembled, once and bottom up, every layer counting into the
// system's registry:
//
//	executor     retries under DefaultRetryPolicy iff any weather is declared
//	injector     per-family faults, if FamilyWeather
//	tap          acknowledged writes to the Verifier, if one is given
//	store        or, with Replication, the coordinator over the cluster's
//	             replicas, with NodeWeather and Crashes inside it
//
// The tap sits below the injector so an injected failure is never
// recorded as an acknowledged write. A fresh install loads the data
// before the stores count into the registry, so the registry holds
// served traffic only.
func New(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("harness: system %q: %w", cfg.Name, err)
	}
	reg := obs.NewRegistry()
	s := &System{
		Name:     cfg.Name,
		Store:    cfg.Store,
		Repl:     cfg.Repl,
		jr:       cfg.Journal,
		verifier: cfg.Verifier,
		down:     map[string]bool{},
		reg:      reg,
		robust:   newRobustCounters(reg),
	}
	s.adoptRecommendation(cfg.Rec)

	var be backend.KVBackend
	if cfg.Replication == nil {
		if s.Store == nil {
			s.Store = backend.NewStore(cfg.Latency)
			if err := install(cfg, s.Store); err != nil {
				return nil, err
			}
		}
		s.Store.SetObs(reg)
		be = s.Store
	} else {
		rc := cfg.Replication.Normalized()
		if s.Repl == nil {
			s.Repl = backend.NewReplicatedStore(cfg.Latency, rc.Nodes, rc.RF)
			if err := install(cfg, s.Repl); err != nil {
				return nil, err
			}
		}
		s.Repl.SetObs(reg)
		if w := cfg.NodeWeather; w != nil {
			s.nodeInj = faults.NewNodes(w.Seed, s.Repl.NodeCount())
			s.nodeInj.SetDefaultProfile(w.Profile)
			s.nodeInj.SetObs(reg)
		}
		s.Coord = executor.NewCoordinator(s.Repl, executor.CoordinatorOptions{
			Read:    rc.Read,
			Write:   rc.Write,
			Hedge:   rc.Hedge,
			Nodes:   s.nodeInj,
			Crashes: cfg.Crashes,
		})
		s.Coord.SetObs(reg)
		be = s.Coord
	}
	if cfg.Verifier != nil {
		be = verify.NewTap(be, cfg.Verifier)
	}
	if w := cfg.FamilyWeather; w != nil {
		s.inj = faults.New(be, w.Seed)
		s.inj.SetDefaultProfile(w.Profile)
		s.inj.SetObs(reg)
		be = s.inj
	}
	var retry executor.RetryPolicy // the zero policy never retries
	if cfg.FamilyWeather != nil || cfg.NodeWeather != nil {
		retry = executor.DefaultRetryPolicy()
	}
	s.Exec = executor.NewRetrying(be, cfg.Latency, retry)
	s.Exec.SetObs(reg)
	return s, nil
}

// install loads every column family of the recommended schema from the
// dataset.
func install(cfg Config, into backend.Installer) error {
	for _, x := range cfg.Rec.Schema.Indexes() {
		if err := cfg.Dataset.Install(into, x); err != nil {
			return fmt.Errorf("harness: installing %s for %s: %w", x.Name, cfg.Name, err)
		}
	}
	return nil
}

// NewSystem installs a recommendation's schema into a fresh store,
// loading every column family from the dataset: a healthy single-store
// system.
func NewSystem(name string, ds *backend.Dataset, rec *search.Recommendation, lat cost.Params) (*System, error) {
	return New(Config{Name: name, Rec: rec, Latency: lat, Dataset: ds})
}

// NewReplicatedSystem installs a recommendation's schema into a fresh
// replicated cluster: every partition lands on its RF ring replicas,
// and statements execute through a quorum coordinator. On a healthy
// cluster at consistency ALL, execution is indistinguishable from a
// single-store System — same rows, same simulated time — because every
// replica charges the same deterministic service times; degradation
// appears only once Config declares node weather.
func NewReplicatedSystem(name string, ds *backend.Dataset, rec *search.Recommendation, lat cost.Params, cfg ReplicationConfig) (*System, error) {
	return New(Config{Name: name, Rec: rec, Latency: lat, Dataset: ds, Replication: &cfg})
}

// Faults returns the per-family fault injector Config.FamilyWeather
// declared, or nil. Production never reaches past the System for it;
// the failover tests do, to degrade one family or read its counts.
func (s *System) Faults() *faults.Injector { return s.inj }
