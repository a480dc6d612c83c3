package explorer

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"github.com/phishinghook/phishinghook/internal/ethrpc"
)

// CrawlerOption configures a Crawler.
type CrawlerOption func(*Crawler)

// WithWorkers sets the label-fetch concurrency (default 8).
func WithWorkers(n int) CrawlerOption {
	return func(c *Crawler) {
		if n > 0 {
			c.workers = n
		}
	}
}

// Crawler scrapes the registry and label services the way the paper's data
// gathering scraped BigQuery + Etherscan. Safe for concurrent use.
type Crawler struct {
	base    string
	http    *http.Client
	workers int
}

// NewCrawler returns a crawler rooted at the service base URL.
func NewCrawler(base string, opts ...CrawlerOption) *Crawler {
	c := &Crawler{
		base:    base,
		http:    &http.Client{Timeout: 10 * time.Second, Transport: ethrpc.NewPooledTransport()},
		workers: 8,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// ListContracts pages through the registry for the given block range and
// returns every address.
func (c *Crawler) ListContracts(ctx context.Context, fromBlock, toBlock uint64) ([]string, error) {
	var out []string
	cursor := 0
	for {
		u := fmt.Sprintf("%s/registry/contracts?from=%d&to=%d&cursor=%d",
			c.base, fromBlock, toBlock, cursor)
		page, err := getJSON[RegistryPage](ctx, c, u)
		if err != nil {
			return nil, fmt.Errorf("explorer: registry page at cursor %d: %w", cursor, err)
		}
		out = append(out, page.Addresses...)
		if page.NextCursor < 0 {
			return out, nil
		}
		if page.NextCursor <= cursor {
			return nil, fmt.Errorf("explorer: registry cursor did not advance (%d -> %d)", cursor, page.NextCursor)
		}
		cursor = page.NextCursor
	}
}

// Label fetches one address's label.
func (c *Crawler) Label(ctx context.Context, address string) (string, error) {
	u := c.base + "/api/label?address=" + url.QueryEscape(address)
	resp, err := getJSON[LabelResponse](ctx, c, u)
	if err != nil {
		return "", err
	}
	return resp.Label, nil
}

// LabelResult pairs an address with its fetched label (or error).
type LabelResult struct {
	Address string
	Label   string
	Err     error
}

// LabelAll fetches labels for every address with a bounded worker pool and
// returns the results sorted by address (deterministic regardless of worker
// interleaving). Individual failures are recorded per address, not fatal.
func (c *Crawler) LabelAll(ctx context.Context, addresses []string) []LabelResult {
	jobs := make(chan string)
	results := make([]LabelResult, 0, len(addresses))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < c.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for addr := range jobs {
				label, err := c.Label(ctx, addr)
				mu.Lock()
				results = append(results, LabelResult{Address: addr, Label: label, Err: err})
				mu.Unlock()
			}
		}()
	}
feed:
	for _, a := range addresses {
		select {
		case jobs <- a:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	sort.Slice(results, func(i, j int) bool { return results[i].Address < results[j].Address })
	return results
}

// crawlRetry paces the crawler's retries on backoff alone. The explorer's
// Retry-After counts whole seconds against a bucket that refills
// continuously, so honoring it would idle a worker for a second per 429.
var crawlRetry = ethrpc.RetryPolicy{Attempts: 5, Backoff: 25 * time.Millisecond}

// getJSON GETs u and decodes its JSON body into a T. 429s, 5xx statuses,
// transport faults and undecodable bodies are transient and retried; any
// other status is the service's answer.
func getJSON[T any](ctx context.Context, c *Crawler, u string) (T, error) {
	return ethrpc.Retry(ctx, crawlRetry, func() (T, error) {
		var v T
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return v, err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return v, ethrpc.MarkTransient(err)
		}
		defer ethrpc.CloseBody(resp)
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			return v, ethrpc.MarkTransient(&ethrpc.RateLimitError{})
		case resp.StatusCode >= 500:
			return v, ethrpc.MarkTransient(fmt.Errorf("server status %d", resp.StatusCode))
		case resp.StatusCode != http.StatusOK:
			return v, fmt.Errorf("status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			return v, ethrpc.MarkTransient(fmt.Errorf("decode body: %w", err))
		}
		return v, nil
	})
}
