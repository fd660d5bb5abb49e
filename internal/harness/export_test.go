package harness

import "nose/internal/faults"

// Faults returns the per-family fault injector Config.FamilyWeather
// declared, or nil: the harness tests reach past the System for it to
// degrade one family or mark it down. A family is down exactly where
// its injector says so.
func (s *System) Faults() *faults.Injector { return s.inj }
