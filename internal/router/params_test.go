package router

import (
	"errors"
	"testing"

	"repro/internal/coloring"
)

// TestNewRejectsInvalidParams: an out-of-range parameter block fails
// New with an error wrapping ErrInvalidParams instead of panicking the
// search (a negative step cost breaks the bucket queue's monotone
// keys, a huge one its size; NonPrefMul < 1 voids the A* bound). The
// zero block stands for DefaultParams and stays valid, and so does a
// block with every weight at MaxParam.
func TestNewRejectsInvalidParams(t *testing.T) {
	nl := randomNetlist("params", 20, 20, 8, 4)
	with := func(edit func(*Params)) Params {
		p := DefaultParams()
		edit(&p)
		return p
	}
	cases := []struct {
		name   string
		params Params
		ok     bool
	}{
		{"zero block", Params{}, true},
		{"defaults", DefaultParams(), true},
		{"conference", ConferenceParams(), true},
		{"non_pref_mul 1", with(func(p *Params) { p.NonPrefMul = 1 }), true},
		{"alpha -40", with(func(p *Params) { p.Alpha = -40 }), false},
		{"amc -1", with(func(p *Params) { p.AMC = -1 }), false},
		{"beta -1", with(func(p *Params) { p.Beta = -1 }), false},
		{"gamma -1", with(func(p *Params) { p.Gamma = -1 }), false},
		{"via_cost -50", with(func(p *Params) { p.ViaCost = -50 }), false},
		{"non_pref_mul -3", with(func(p *Params) { p.NonPrefMul = -3 }), false},
		{"non_pref_mul 0", with(func(p *Params) { p.NonPrefMul = 0 }), false},
		{"non_pref_turn_cost -2", with(func(p *Params) { p.NonPrefTurnCost = -2 }), false},
		{"usage_penalty -12", with(func(p *Params) { p.UsagePenalty = -12 }), false},
		{"hist_inc -3", with(func(p *Params) { p.HistInc = -3 }), false},
		{"partial block", Params{ViaCost: 4}, false},
		// Past the cap the search breaks: 2^60 pushes a negative key
		// into the bucket queue, 2^40 overflows its ring's size, and
		// 2^20 grows one searcher's ring to 2^25 buckets.
		{"via_cost 2^60", with(func(p *Params) { p.ViaCost = 1 << 60 }), false},
		{"via_cost 2^40", with(func(p *Params) { p.ViaCost = 1 << 40 }), false},
		{"via_cost 2^20", with(func(p *Params) { p.ViaCost = 1 << 20 }), false},
		{"alpha cap+1", with(func(p *Params) { p.Alpha = MaxParam + 1 }), false},
		{"all at cap", Params{
			Alpha: MaxParam, AMC: MaxParam, Beta: MaxParam, Gamma: MaxParam,
			ViaCost: MaxParam, NonPrefMul: MaxParam, NonPrefTurnCost: MaxParam,
			UsagePenalty: MaxParam, HistInc: MaxParam,
		}, true},
	}
	arena := NewArena()
	for _, c := range cases {
		for _, a := range []*Arena{nil, arena} {
			rt, err := New(nl, Config{
				Scheme: coloring.Scheme{Type: coloring.SIM}, ConsiderDVI: true, ConsiderTPL: true,
				Params: c.params, Arena: a,
			})
			if !c.ok {
				if !errors.Is(err, ErrInvalidParams) {
					t.Fatalf("%s (arena %v): New error %v, want ErrInvalidParams", c.name, a != nil, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s (arena %v): New: %v", c.name, a != nil, err)
			}
			if err := rt.Run(); err != nil {
				t.Fatalf("%s (arena %v): Run: %v", c.name, a != nil, err)
			}
			arena.Release(rt)
		}
	}
}
