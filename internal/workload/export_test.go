package workload

import "nose/internal/model"

// WrittenAttributes returns all attributes the insert provides values
// for, including the key.
func (s *Insert) WrittenAttributes() []*model.Attribute {
	out := []*model.Attribute{s.Entity.Key()}
	for _, a := range s.Set {
		out = append(out, a.Attr)
	}
	return out
}

// WrittenAttributes returns the attributes modified by the update.
func (s *Update) WrittenAttributes() []*model.Attribute {
	out := make([]*model.Attribute, 0, len(s.Set))
	for _, a := range s.Set {
		out = append(out, a.Attr)
	}
	return out
}
