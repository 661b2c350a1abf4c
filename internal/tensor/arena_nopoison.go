//go:build !arenapoison

package tensor

// arenaPoison is off in normal builds; see arena_poison.go.
const arenaPoison = false
