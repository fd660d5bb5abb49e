package planner

import (
	"nose/internal/enumerator"
	"nose/internal/schema"
	"nose/internal/workload"
)

// PlanUpdate builds the update plan for maintaining one column family
// under one write statement (paper §VI-B): the estimated delete and put
// work. The update's support queries are planned as queries (PlanQuery)
// and priced by the optimizer through their plan variables; the
// WriteCost field carries only the write-side cost.
func (p *Planner) PlanUpdate(u workload.WriteStatement, x *schema.Index) *UpdatePlan {
	affected := enumerator.AffectedRecords(u, x)
	up := &UpdatePlan{Statement: u, Index: x}

	var doDelete, doInsert bool
	switch st := u.(type) {
	case *workload.Update:
		// Updates delete the stale record and insert the new one
		// (paper §VI-B).
		doDelete, doInsert = true, true
	case *workload.Delete:
		doDelete = true
	case *workload.Insert:
		doInsert = true
	case *workload.Connect:
		if st.Disconnect {
			doDelete = true
		} else {
			doInsert = true
		}
	}
	if doDelete {
		up.DeleteRequests = affected
	}
	if doInsert {
		up.InsertRequests = affected
		up.InsertCells = affected * float64(len(x.AllAttributes()))
	}
	up.WriteCost = p.model.Delete(up.DeleteRequests) + p.model.Insert(up.InsertRequests, up.InsertCells)
	return up
}
