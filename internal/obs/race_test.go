//go:build race

package obs

// raceEnabled skips the allocation budgets whose count moves under the
// race detector, which drops sync.Pool items at random.
const raceEnabled = true
