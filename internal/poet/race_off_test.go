//go:build !race

package poet

const raceEnabled = false
