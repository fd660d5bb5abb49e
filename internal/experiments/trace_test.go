package experiments_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"nose/internal/experiments"
	"nose/internal/obs"
)

// TestTraceLanesOnePerSystem: a traced sweep gives every system it
// builds its own simulated-clock lane. Each system lays its statements
// end to end from its own cursor, so two systems sharing a tid overlay
// their events from zero (drift re-used tids 1 and 2 for every rate,
// fig12 tids 1-3 for every mix) and a system without a lane is missing
// from the trace altogether (online named none).
func TestTraceLanesOnePerSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	cases := []struct {
		name    string
		systems int
		run     func(tr *obs.Tracer) error
	}{
		// 2 rates x (static, readvised).
		{"drift", 4, func(tr *obs.Tracer) error {
			cfg := driftTestConfig(1)
			cfg.Base.Trace = tr
			_, err := experiments.RunDrift(cfg)
			return err
		}},
		// 4 mixes x 3 schemas.
		{"fig12", 12, func(tr *obs.Tracer) error {
			cfg := tinyBase(1)
			cfg.Trace = tr
			_, err := experiments.RunFig12(cfg)
			return err
		}},
		// 2 rates x (clean, faulted) x 3 strategies.
		{"online", 12, func(tr *obs.Tracer) error {
			cfg := onlineTestConfig(1)
			cfg.Base.Trace = tr
			_, err := experiments.RunOnline(cfg)
			return err
		}},
	}
	for _, tc := range cases {
		tr := obs.NewTracer()
		if err := tc.run(tr); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var buf bytes.Buffer
		if err := tr.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Ph   string         `json:"ph"`
				Pid  int            `json:"pid"`
				Tid  int            `json:"tid"`
				Ts   float64        `json:"ts"`
				Dur  float64        `json:"dur"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
			t.Fatal(err)
		}

		lanes := map[int]string{} // tid -> lane name
		named := map[string]int{} // lane name -> tid
		events := map[int]int{}   // tid -> simulated-clock events
		cursor := map[int]float64{}
		overlaid := map[int]bool{}
		for _, e := range trace.TraceEvents {
			if e.Pid != obs.SimPID {
				continue
			}
			switch e.Ph {
			case "M":
				if e.Name != "thread_name" {
					continue
				}
				name, _ := e.Args["name"].(string)
				if other, dup := named[name]; dup {
					t.Errorf("%s: lanes %d and %d share the name %q", tc.name, other, e.Tid, name)
				}
				lanes[e.Tid], named[name] = name, e.Tid
			case "X":
				events[e.Tid]++
				// One cursor per lane: a tid named for a second system
				// restarts at zero under the first system's events.
				if e.Ts < cursor[e.Tid]-1e-6 {
					overlaid[e.Tid] = true
				}
				cursor[e.Tid] = e.Ts + e.Dur
			}
		}
		for tid := range overlaid {
			t.Errorf("%s: lane %d (%s) restarts its cursor — two systems on one tid", tc.name, tid, lanes[tid])
		}
		if len(lanes) != tc.systems {
			t.Errorf("%s: %d simulated-clock lanes for %d systems built: %v", tc.name, len(lanes), tc.systems, lanes)
		}
		for tid, name := range lanes {
			if events[tid] == 0 {
				t.Errorf("%s: lane %d (%s) carries no event", tc.name, tid, name)
			}
		}
		for tid := range events {
			if _, ok := lanes[tid]; !ok {
				t.Errorf("%s: %d events on unnamed lane %d", tc.name, events[tid], tid)
			}
		}
	}
}
