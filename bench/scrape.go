package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// scrape is one reading of a Prometheus text exposition, keyed by the full
// series name including its label set, e.g.
// `accdb_txn_stage_seconds_sum{stage="exec"}`.
type scrape map[string]float64

// parseScrape reads the text exposition format. It fails on a sample line it
// cannot parse rather than skipping it: a silently thinner scrape would turn
// into silently missing layer metrics.
func parseScrape(r io.Reader) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("bench: malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bench: malformed metrics line %q: %w", line, err)
		}
		s[line[:cut]] = v
	}
	return s, sc.Err()
}

// scrapeMetrics fetches addr's /metrics.
func scrapeMetrics(addr string) (scrape, error) {
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("bench: scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: scrape: %s", resp.Status)
	}
	return parseScrape(resp.Body)
}

// delta is after − before over one measured interval. A series read through
// of must be in the closing scrape: if accd renames or drops one, the layer
// metrics built on it must fail, not read 0 — which a lower-is-better metric
// would show as an improvement. missing collects the absentees for err.
type delta struct {
	before, after scrape
	missing       []string
}

// of is the growth of a series the benchmark requires.
func (d *delta) of(series string) float64 {
	if _, ok := d.after[series]; !ok {
		d.missing = append(d.missing, series)
	}
	return d.after[series] - d.before[series]
}

// end is a required gauge's reading when the interval closed.
func (d *delta) end(series string) float64 {
	d.of(series)
	return d.after[series]
}

// opt is the growth of a series accd exports only under some conditions —
// partition series with -partitions, an anatomy stage once a request has
// entered it — and which otherwise counts from zero.
func (d *delta) opt(series string) float64 { return d.after[series] - d.before[series] }

// err reports the required series the closing scrape lacked.
func (d *delta) err() error {
	if len(d.missing) == 0 {
		return nil
	}
	return fmt.Errorf("bench: scrape lacks %s (%d series in all): the counters are not what the benchmark expects",
		strings.Join(d.missing, ", "), len(d.after))
}

// per divides a counter's delta by a base, reading 0/0 as 0: no events over
// no opportunities is an honest zero rate.
func per(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}
