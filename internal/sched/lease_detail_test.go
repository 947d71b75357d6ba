package sched

import (
	"fmt"
	"testing"
	"time"

	"proteus/internal/market"
)

// TestLeaseDetailsMatchSprintf holds the strconv renderers of the lease
// span's two details to the fmt.Sprintf calls they replaced, byte for
// byte, across digit-count boundaries and the duration units
// time.Duration.String switches between.
func TestLeaseDetailsMatchSprintf(t *testing.T) {
	ints := []int{0, 9, 10, 99, 100, 1 << 31}
	durations := []time.Duration{0, time.Nanosecond, 59999 * time.Millisecond, time.Hour,
		1000 * time.Hour, 90 * time.Minute, 1500 * time.Microsecond, -time.Second}
	for _, id := range ints {
		for _, cores := range ints {
			for _, typeName := range []string{"c4.xlarge", "", "a-type-name-long-enough-to-outgrow-the-sixty-four-byte-stack-buffer"} {
				got := leaseGrantDetail(market.AllocationID(id), id+1, typeName, cores)
				want := fmt.Sprintf("alloc %d: %dx %s = %d cores", market.AllocationID(id), id+1, typeName, cores)
				if got != want {
					t.Fatalf("grant detail %q, want %q", got, want)
				}
			}
			for _, held := range durations {
				got := leaseHeldDetail(market.AllocationID(id), cores, held)
				want := fmt.Sprintf("alloc %d: %d cores held %v", market.AllocationID(id), cores, held)
				if got != want {
					t.Fatalf("held detail %q, want %q", got, want)
				}
			}
		}
	}
}
