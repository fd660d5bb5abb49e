package harness

import (
	"nose/internal/backend"
	"nose/internal/faults"
)

// Faults returns the per-family fault injector Config.FamilyWeather
// declared, or nil: the harness tests reach past the System for it to
// degrade one family or mark it down. A family is down exactly where
// its injector says so.
func (s *System) Faults() *faults.Injector { return s.inj }

// Install installs cfg's schema from its dataset into a store on the
// given number of workers, as New does on par.Workers(0).
func Install(cfg Config, into backend.Installer, workers int) error {
	return install(cfg, into, workers)
}
