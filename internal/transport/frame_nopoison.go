//go:build !arenapoison

package transport

// framePoison is off in normal builds; see frame_poison.go.
const framePoison = false
