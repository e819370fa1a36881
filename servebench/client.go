package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// maxConns bounds the client connections of every workload: all load
// comes from this one process, on at most two connections (the CPU
// count of the machine the benchmark was tuned on).
const maxConns = 2

// client is the benchmark's HTTP client.
type client struct {
	hc *http.Client
	// traced makes every request carry seqHeader.
	traced bool
	seq    atomic.Int64
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one finished request.
type reply struct {
	status int
	body   []byte
	sent   time.Time
	done   time.Time
	seq    int64
}

// post sends body to url and reads the whole response.
func (c *client) post(url string, body []byte) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	seq := c.seq.Add(1)
	if c.traced {
		req.Header.Set(seqHeader, strconv.FormatInt(seq, 10))
	}
	rep := reply{sent: time.Now(), seq: seq}
	resp, err := c.hc.Do(req)
	if err != nil {
		return rep, err
	}
	rep.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rep.done = time.Now()
	rep.status = resp.StatusCode
	return rep, err
}

// waitReady polls base's /readyz until it answers 200.
func (c *client) waitReady(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.hc.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready after 30s (last error: %v)", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// Wire forms of the serving API (see internal/serve).
type edgeJSON struct {
	Src  int32   `json:"src"`
	Dst  int32   `json:"dst"`
	Time float64 `json:"time"`
	Idx  int32   `json:"idx,omitempty"`
}

type embedReq struct {
	Nodes []int32   `json:"nodes"`
	Times []float64 `json:"times"`
}

type embedResp struct {
	Embeddings [][]float32 `json:"embeddings"`
}

type scoreReq struct {
	Pairs []edgeJSON `json:"pairs"`
}

type scoreResp struct {
	Logits []float64 `json:"logits"`
}

type ingestReq struct {
	Edges []edgeJSON `json:"edges"`
}

type ingestResp struct {
	Accepted    int     `json:"accepted"`
	Late        int     `json:"late"`
	Dropped     int     `json:"dropped"`
	Invalidated int     `json:"invalidated"`
	MaxTime     float64 `json:"max_time"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only the benchmark's own plain structs are encoded
	}
	return b
}

// quantile returns the q-quantile of ds (nearest rank); ds is sorted in
// place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return ds[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// poissonSchedule returns the seeded due offsets of an open-loop Poisson
// arrival process at rate per second over dur.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// openLoop releases job i at start+due[i] to at most maxConns workers,
// whatever the state of earlier jobs, and reports for each job how late
// the generator released it. Latency is the caller's to measure from
// the due time, so a stall also charges the requests queued behind it.
func openLoop(start time.Time, due []time.Duration, work func(i int, due time.Time)) (lateness []time.Duration) {
	jobs := make(chan int, len(due)) // sized to the schedule: the generator never blocks
	lateness = make([]time.Duration, len(due))
	done := make(chan struct{})
	for w := 0; w < maxConns; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range jobs {
				work(i, start.Add(due[i]))
			}
		}()
	}
	for i, d := range due {
		at := start.Add(d)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		lateness[i] = time.Since(at)
		jobs <- i
	}
	close(jobs)
	for w := 0; w < maxConns; w++ {
		<-done
	}
	return lateness
}

// splitmix is a small seeded generator for per-request choices: a
// request's content is a function of the seed and its index alone.
type splitmix uint64

func newSplitmix(seed uint64, i int) *splitmix {
	s := splitmix(seed*0x9E3779B97F4A7C15 ^ uint64(i)*0xD1B54A32D192ED03)
	return &s
}

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// float returns a value in [0, 1).
func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf}
}

func (z zipf) draw(r *splitmix) int {
	return sort.SearchFloat64s(z.cdf, r.float())
}
