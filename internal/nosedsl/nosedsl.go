// Package nosedsl parses the textual input format of the nose CLI: a
// line-oriented description of a conceptual model (entities,
// attributes, relationships) and a weighted workload. Example:
//
//	# hotel booking example
//	entity Hotel HotelID 100
//	attr Hotel.HotelName string
//	attr Hotel.HotelCity string cardinality 50
//	entity Room RoomID 10000
//	attr Room.RoomRate float cardinality 200
//	rel Hotel.Rooms Room.Hotel one-to-many
//	stmt 0.8 RoomsByCity: SELECT Room.RoomID FROM Room
//	    WHERE Room.Hotel.HotelCity = ?city AND Room.RoomRate > ?rate
//	stmt 0.2: UPDATE Room SET RoomRate = ? WHERE Room.RoomID = ?
//
// Statements may continue across lines: continuation lines are those
// starting with whitespace. Lines starting with '#' are comments. The
// optional per-mix form "stmt mix(name=w,name2=w2) label: ..." attaches
// mix weights; until a mix is selected the first one written applies.
//
// Time-dependent workloads add phase directives after the statements:
//
//	phase launch duration 2 RoomsByCity=0.9
//	phase steady mix bidding
//
// Each phase names an interval of the timeline, with an optional
// relative duration (default 1), an optional named mix supplying the
// interval's weights, and optional Label=weight overrides that pin
// individual statements' weights. Phases are what cmd/nose -phases and
// search.AdviseSeries consume.
package nosedsl

import (
	"fmt"
	"strconv"
	"strings"

	"nose/internal/model"
	"nose/internal/workload"
)

// deferredLine is a directive whose parsing waits until the model (and,
// for phases, the statement set) is complete. The original line number
// is kept for error reporting.
type deferredLine struct {
	line int
	text string
}

// Parse reads a model and workload from DSL text.
func Parse(src string) (*model.Graph, *workload.Workload, error) {
	g := model.NewGraph()
	var stmtLines []deferredLine  // deferred until the model is complete
	var phaseLines []deferredLine // deferred until the statements are parsed

	lines := strings.Split(src, "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		fields := strings.Fields(trimmed)
		switch fields[0] {
		case "entity":
			if len(fields) != 4 {
				return nil, nil, lineErr(i, "entity requires: entity <Name> <KeyName> <count>")
			}
			count, err := strconv.Atoi(fields[3])
			if err != nil {
				return nil, nil, lineErr(i, "bad entity count %q", fields[3])
			}
			if g.Entity(fields[1]) != nil {
				return nil, nil, lineErr(i, "duplicate entity %q", fields[1])
			}
			g.AddEntity(fields[1], fields[2], count)
		case "attr":
			if len(fields) < 3 {
				return nil, nil, lineErr(i, "attr requires: attr <Entity>.<Name> <type> [cardinality N] [size N]")
			}
			entName, attrName, ok := strings.Cut(fields[1], ".")
			if !ok {
				return nil, nil, lineErr(i, "attr name must be Entity.Attribute")
			}
			e := g.Entity(entName)
			if e == nil {
				return nil, nil, lineErr(i, "no entity %q", entName)
			}
			typ, err := model.ParseAttributeType(fields[2])
			if err != nil {
				return nil, nil, lineErr(i, "%v", err)
			}
			if e.Attribute(attrName) != nil {
				return nil, nil, lineErr(i, "duplicate attribute %s.%s", entName, attrName)
			}
			a := e.AddAttribute(attrName, typ)
			rest := fields[3:]
			for len(rest) >= 2 {
				n, err := strconv.Atoi(rest[1])
				if err != nil {
					return nil, nil, lineErr(i, "bad %s value %q", rest[0], rest[1])
				}
				switch rest[0] {
				case "cardinality":
					a.Cardinality = n
				case "size":
					a.Size = n
				default:
					return nil, nil, lineErr(i, "unknown attr option %q", rest[0])
				}
				rest = rest[2:]
			}
			if len(rest) != 0 {
				return nil, nil, lineErr(i, "trailing attr input %v", rest)
			}
		case "rel":
			if len(fields) != 4 {
				return nil, nil, lineErr(i, "rel requires: rel <From>.<FwdName> <To>.<InvName> <kind>")
			}
			from, fwd, ok1 := strings.Cut(fields[1], ".")
			to, inv, ok2 := strings.Cut(fields[2], ".")
			if !ok1 || !ok2 {
				return nil, nil, lineErr(i, "rel endpoints must be Entity.EdgeName")
			}
			kind, err := model.ParseRelationshipKind(fields[3])
			if err != nil {
				return nil, nil, lineErr(i, "%v", err)
			}
			if _, err := g.AddRelationship(from, fwd, to, inv, kind); err != nil {
				return nil, nil, lineErr(i, "%v", err)
			}
		case "stmt":
			// Gather continuation lines (indented).
			start := i
			stmt := trimmed
			for i+1 < len(lines) && isContinuation(lines[i+1]) {
				i++
				stmt += " " + strings.TrimSpace(lines[i])
			}
			stmtLines = append(stmtLines, deferredLine{line: start, text: stmt})
		case "phase":
			phaseLines = append(phaseLines, deferredLine{line: i, text: trimmed})
		default:
			return nil, nil, lineErr(i, "unknown directive %q", fields[0])
		}
	}
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}

	w := workload.New(g)
	for _, dl := range stmtLines {
		if err := parseStmtLine(g, w, dl.text); err != nil {
			return nil, nil, lineErr(dl.line, "%v", err)
		}
	}
	if err := w.Validate(); err != nil {
		return nil, nil, err
	}
	for _, dl := range phaseLines {
		if err := parsePhaseLine(w, dl.text); err != nil {
			return nil, nil, lineErr(dl.line, "%v", err)
		}
	}
	if err := w.ValidatePhases(); err != nil {
		return nil, nil, err
	}
	return g, w, nil
}

func isContinuation(line string) bool {
	return line != "" && (line[0] == ' ' || line[0] == '\t') && strings.TrimSpace(line) != ""
}

// parseStmtLine parses "stmt <weight-or-mixes> [label]: <statement>".
// Errors are unprefixed; the caller attaches the file line.
func parseStmtLine(g *model.Graph, w *workload.Workload, line string) error {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "stmt"))
	head, body, ok := strings.Cut(rest, ":")
	if !ok {
		return fmt.Errorf("statement line missing ':' separator: %q", line)
	}
	headFields := strings.Fields(head)
	if len(headFields) == 0 {
		return fmt.Errorf("statement line missing weight: %q", line)
	}

	st, err := workload.Parse(g, strings.TrimSpace(body))
	if err != nil {
		return err
	}
	label := ""
	if len(headFields) > 1 {
		label = headFields[1]
	}
	setLabel(st, label)

	spec := headFields[0]
	if mixes, found := strings.CutPrefix(spec, "mix("); found {
		mixes = strings.TrimSuffix(mixes, ")")
		weights := map[string]float64{}
		for _, part := range strings.Split(mixes, ",") {
			name, val, ok := strings.Cut(part, "=")
			if !ok {
				return fmt.Errorf("bad mix spec %q", spec)
			}
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("bad mix weight %q", val)
			}
			weights[name] = f
		}
		// With no mix selected, a file's statements weigh what its first
		// mix as written says.
		first, _, _ := strings.Cut(mixes, "=")
		w.AddMixed(st, weights).Weight = weights[first]
		return nil
	}
	weight, err := strconv.ParseFloat(spec, 64)
	if err != nil {
		return fmt.Errorf("bad statement weight %q", spec)
	}
	w.Add(st, weight)
	return nil
}

// parsePhaseLine parses "phase <name> [duration <f>] [mix <name>]
// [Label=<weight> ...]". Errors are unprefixed; the caller attaches the
// file line.
func parsePhaseLine(w *workload.Workload, line string) error {
	fields := strings.Fields(strings.TrimPrefix(line, "phase"))
	if len(fields) == 0 {
		return fmt.Errorf("phase requires: phase <name> [duration <f>] [mix <name>] [Label=<weight> ...]")
	}
	p := &workload.Phase{Name: fields[0]}
	if strings.Contains(p.Name, "=") {
		return fmt.Errorf("phase name missing (got override %q first)", p.Name)
	}
	rest := fields[1:]
	for len(rest) > 0 {
		switch {
		case rest[0] == "duration":
			if len(rest) < 2 {
				return fmt.Errorf("phase duration missing a value")
			}
			f, err := strconv.ParseFloat(rest[1], 64)
			if err != nil || f <= 0 {
				return fmt.Errorf("bad phase duration %q", rest[1])
			}
			p.Duration = f
			rest = rest[2:]
		case rest[0] == "mix":
			if len(rest) < 2 {
				return fmt.Errorf("phase mix missing a name")
			}
			p.Mix = rest[1]
			rest = rest[2:]
		case strings.Contains(rest[0], "="):
			label, val, _ := strings.Cut(rest[0], "=")
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("bad phase override weight %q", val)
			}
			if p.Overrides == nil {
				p.Overrides = map[string]float64{}
			}
			p.Overrides[label] = f
			rest = rest[1:]
		default:
			return fmt.Errorf("unknown phase option %q", rest[0])
		}
	}
	w.AddPhase(p)
	return nil
}

func setLabel(st workload.Statement, label string) {
	if label == "" {
		return
	}
	switch s := st.(type) {
	case *workload.Query:
		s.Label = label
	case *workload.Insert:
		s.Label = label
	case *workload.Update:
		s.Label = label
	case *workload.Delete:
		s.Label = label
	case *workload.Connect:
		s.Label = label
	}
}

func lineErr(line int, format string, args ...any) error {
	return fmt.Errorf("nosedsl: line %d: %s", line+1, fmt.Sprintf(format, args...))
}
