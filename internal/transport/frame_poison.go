//go:build arenapoison

package transport

// framePoison is on under the arenapoison build tag: Message.Release fills
// the frame with 0xFF before pooling it, so a payload read after its
// release turns into int8 code −1 under a NaN scale and moves every pinned
// digest downstream.
const framePoison = true
