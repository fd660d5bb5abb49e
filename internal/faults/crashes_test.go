package faults_test

import (
	"errors"
	"fmt"
	"testing"

	"nose/internal/faults"
)

// TestCrashesDeterministicAndSticky: the armed Point call fires, every
// later Point at any site returns the same crash, and a nil set never
// crashes.
func TestCrashesDeterministicAndSticky(t *testing.T) {
	c := faults.NewCrashes()
	c.Arm(faults.SiteHandoff, 1)
	if err := c.Point(faults.SiteJournal); err != nil {
		t.Fatalf("unarmed site crashed: %v", err)
	}
	if err := c.Point(faults.SiteHandoff); err != nil {
		t.Fatalf("handoff point 0 crashed: %v", err)
	}
	err := c.Point(faults.SiteHandoff)
	var ce *faults.CrashError
	if !errors.As(err, &ce) || ce.Site != faults.SiteHandoff || ce.Index != 1 {
		t.Fatalf("handoff point 1: %v", err)
	}
	if !faults.IsCrash(fmt.Errorf("wrapped: %w", err)) {
		t.Fatal("IsCrash missed a wrapped crash")
	}
	// Dead stays dead, at every site.
	if err := c.Point(faults.SiteJournal); !faults.IsCrash(err) {
		t.Fatalf("journal point after crash: %v", err)
	}
	if c.Count(faults.SiteHandoff) != 2 {
		t.Fatalf("handoff count = %d", c.Count(faults.SiteHandoff))
	}
	// Disarm and nil safety.
	c2 := faults.NewCrashes()
	c2.Arm(faults.SiteJournal, 0)
	c2.Arm(faults.SiteJournal, -1)
	if err := c2.Point(faults.SiteJournal); err != nil {
		t.Fatalf("disarmed site crashed: %v", err)
	}
	var nilC *faults.Crashes
	if err := nilC.Point(faults.SiteJournal); err != nil || nilC.Fired() != nil || nilC.Count("x") != 0 {
		t.Fatal("nil Crashes misbehaved")
	}
}
