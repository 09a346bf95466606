package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentExpositionWhileWritersHot scrapes /metrics over real
// HTTP while writer goroutines hammer counters,
// gauges and histograms — including creating new labeled series mid-
// scrape. Under -race (CI runs this package repeatedly with -count=5)
// it pins the registry's no-locks-on-the-hot-path claim; structurally
// it asserts every scrape succeeds and is complete. Writers only stop
// after the last scrape, so exposition is always under write pressure.
func TestConcurrentExpositionWhileWritersHot(t *testing.T) {
	reg := NewRegistry()
	srv := serveAttached(t, reg)

	// Pre-register one of each kind so every scrape must see them.
	reg.Counter("race_iters_total", "writes under scrape").Add(1)
	reg.Gauge("race_utility", "writes under scrape").Set(1)
	reg.Histogram("race_seconds", "writes under scrape", nil).Observe(0.01)

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for wid := 0; wid < 3; wid++ {
		writers.Add(1)
		go func(wid int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				reg.Counter("race_iters_total", "").Add(1)
				reg.Gauge("race_utility", "").Set(float64(i))
				reg.Histogram("race_seconds", "", nil).Observe(float64(i%100) / 1000)
				// New labeled series appear while exposition walks the
				// registry — the hardest case for torn reads.
				reg.Counter("race_labeled_total", "",
					"writer", fmt.Sprint(wid), "mod", fmt.Sprint(i%8)).Add(1)
			}
		}(wid)
	}

	scrape := func(path, want string) error {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			return fmt.Errorf("%s scrape missing %q:\n%.500s", path, want, body)
		}
		return nil
	}

	var scrapers sync.WaitGroup
	scrapeErr := make(chan error, 4)
	for r := 0; r < 2; r++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 10; i++ {
				if err := scrape("/metrics", "race_iters_total"); err != nil {
					scrapeErr <- err
					return
				}
			}
		}()
	}

	scrapers.Wait()
	close(stop)
	writers.Wait()
	select {
	case err := <-scrapeErr:
		t.Fatal(err)
	default:
	}

	// The counter survived the stampede with a coherent value.
	if got := reg.Counter("race_iters_total", "").Value(); got == 0 {
		t.Fatal("writer counter lost its updates")
	}
}
