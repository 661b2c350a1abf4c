//go:build !amd64

package tensor

import "testing"

// withKernelVariants runs f once: without assembly kernels the scalar
// references are the only variant.
func withKernelVariants(t *testing.T, f func(t *testing.T)) { t.Run(KernelVariant(), f) }
