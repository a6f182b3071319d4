// Command metricscheck is the CI smoke checker for /metrics endpoints:
// it fetches a Prometheus text exposition, validates that every line
// parses (obs.ParseText rejects anything malformed) and that names and
// labels follow the project's rules (obs.Scrape.Lint), asserts the
// given metric families are present, and optionally writes the raw
// snapshot to a file for artifact upload. It polls until -timeout so it
// doubles as a readiness wait for freshly started daemons.
//
// Usage:
//
//	metricscheck -url http://127.0.0.1:9200/metrics \
//	    [-out snapshot.prom] [-timeout 30s] family [family...]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"github.com/provlight/provlight/internal/obs"
)

func main() {
	url := flag.String("url", "", "metrics endpoint to scrape")
	out := flag.String("out", "", "write the raw scraped exposition to this file")
	timeout := flag.Duration("timeout", 30*time.Second, "keep retrying the scrape until this deadline")
	flag.Parse()
	if *url == "" {
		fmt.Fprintln(os.Stderr, "metricscheck: -url is required")
		os.Exit(2)
	}
	families := flag.Args()

	deadline := time.Now().Add(*timeout)
	var lastErr error
	for {
		body, err := check(*url, families)
		if err == nil {
			if *out != "" {
				if werr := os.WriteFile(*out, body, 0o644); werr != nil {
					fmt.Fprintf(os.Stderr, "metricscheck: %v\n", werr)
					os.Exit(1)
				}
			}
			fmt.Printf("metricscheck: %s ok (%d bytes, %d families required)\n", *url, len(body), len(families))
			return
		}
		lastErr = err
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "metricscheck: %s: %v\n", *url, lastErr)
			os.Exit(1)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// check scrapes url once, requiring a parseable, lint-clean exposition
// containing every family. Returns the raw body on success.
func check(url string, families []string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	sc, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("exposition does not parse: %w", err)
	}
	if err := sc.Lint(); err != nil {
		return nil, fmt.Errorf("exposition breaks naming rules:\n%w", err)
	}
	for _, f := range families {
		if !sc.Has(f) {
			return nil, fmt.Errorf("family %q missing (have %d samples)", f, len(sc.Samples))
		}
	}
	return body, nil
}
