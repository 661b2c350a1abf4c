//go:build arenapoison

package tensor

// arenaPoison is on under the arenapoison build tag: GetUninit fills its
// memory with NaN, so an op that reads arena memory it did not write
// turns its result, and every pinned digest downstream, into NaN.
//
//	go test -tags arenapoison -cpu 1,2,4 ./internal/fl ./internal/train ./internal/core
const arenaPoison = true
