package main

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// filterEvents is the benchmark's own answer to a range query: the events
// of a run's full history with from <= T, T < to (to == 0 is unbounded)
// and, when node is set, Node == *node, in stored order. Every range query
// the program answers is checked against it.
func filterEvents(all []obs.Event, from, to sim.Time, node *int) []obs.Event {
	var out []obs.Event
	for _, ev := range all {
		if ev.T < from || (to > 0 && ev.T >= to) {
			continue
		}
		if node != nil && ev.Node != *node {
			continue
		}
		out = append(out, ev)
	}
	return out
}
