package market

import (
	"testing"
	"time"

	"proteus/internal/trace"
)

// TestSubscribePricesMatchesSpotPrice pins the per-type event-sharding
// contract: at every poll instant, a subscription's cached price for
// every type — moved or not — equals the SpotPrice lookup it elides,
// and every type whose price actually differs from the cache is
// reported moved. Generated traces give each type its own change
// instants, so most polls move only a subset of the catalog.
func TestSubscribePricesMatchesSpotPrice(t *testing.T) {
	set := trace.GenerateSet("test-zone", 2*24*time.Hour, CatalogPrices(DefaultCatalog()), 5)
	eng, m := newTestMarket(t, set)
	ps := m.SubscribePrices()
	if ps.Len() != len(m.Types()) {
		t.Fatalf("subscription covers %d types, want %d", ps.Len(), len(m.Types()))
	}

	first := ps.Poll(0)
	if len(first) != ps.Len() {
		t.Fatalf("first poll moved %d types, want all %d", len(first), ps.Len())
	}
	if again := ps.Poll(0); len(again) != 0 {
		t.Fatalf("same-instant poll moved %d types, want 0", len(again))
	}

	partial, total := 0, 0
	for now := time.Minute; now <= 36*time.Hour; now += time.Minute {
		eng.RunUntil(now)
		prev := make([]float64, ps.Len())
		for i := range prev {
			prev[i] = ps.Price(i)
		}
		moved := ps.Poll(now)
		total++
		if len(moved) > 0 && len(moved) < ps.Len() {
			partial++
		}
		inMoved := make(map[int]bool, len(moved))
		for k, i := range moved {
			if k > 0 && moved[k-1] >= i {
				t.Fatalf("at %v moved indexes not ascending: %v", now, moved)
			}
			inMoved[i] = true
		}
		for i, it := range m.Types() {
			want, err := m.SpotPrice(it.Name)
			if err != nil {
				t.Fatal(err)
			}
			if got := ps.Price(i); got != want {
				t.Fatalf("at %v cached price for %s = %v, SpotPrice = %v", now, it.Name, got, want)
			}
			if ps.Price(i) != prev[i] && !inMoved[i] {
				t.Fatalf("at %v %s price changed %v -> %v but was not reported moved",
					now, it.Name, prev[i], ps.Price(i))
			}
			if ps.Type(i).Name != it.Name {
				t.Fatalf("Type(%d) = %s, want %s", i, ps.Type(i).Name, it.Name)
			}
		}
	}
	if partial == 0 {
		t.Fatalf("no poll moved a strict subset of the catalog in %d polls; sharding unexercised", total)
	}
}

// TestPricePollAllocatesNothing pins the price work of the scheduler's
// and the forecaster's decision ticks at zero allocations: a
// subscription is polled every virtual minute, and the moved types come
// back in a slice it owns. Each run is an hour of polls, so a poll that
// allocates only when some price moved still counts at least once.
func TestPricePollAllocatesNothing(t *testing.T) {
	set := trace.GenerateSet("test-zone", 5*24*time.Hour, CatalogPrices(DefaultCatalog()), 1)
	_, m := newTestMarket(t, set)
	ps := m.SubscribePrices()
	ps.Poll(0)
	now, moved := time.Duration(0), 0
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 60; i++ {
			now += time.Minute
			moved += len(ps.Poll(now))
		}
	})
	t.Logf("%v allocs per hour of polls, %d types moved in 101 hours", allocs, moved)
	if moved == 0 {
		t.Fatal("no poll moved a price; the sweep went unexercised")
	}
	if allocs != 0 {
		t.Fatalf("an hour of minute price polls allocates %v times, want 0", allocs)
	}
}
