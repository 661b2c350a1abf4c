//go:build race

package fl

// raceEnabled reports whether the race detector is compiled in. Its
// sync.Pool drops a quarter of what is put, so a bound that rests on
// recycled frames does not hold under it.
const raceEnabled = true
