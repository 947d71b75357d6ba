//go:build race

package sched

// raceEnabled skips the allocation budgets whose count moves under the
// race detector, which drops sync.Pool items at random.
const raceEnabled = true
