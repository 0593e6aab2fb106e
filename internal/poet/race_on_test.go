//go:build race

package poet

// raceEnabled reports that the race detector is on: it instruments every
// allocation, so malloc counts and heap sizes mean nothing.
const raceEnabled = true
