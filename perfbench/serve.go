package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"balign/internal/asm"
	"balign/internal/core"
	"balign/internal/cost"
	"balign/internal/ir"
	"balign/internal/predict"
	"balign/internal/profile"
	"balign/internal/serve"
)

const (
	alignPath = "/v1/align"
	// maxClients is the most closed-loop clients a workload runs.
	maxClients = 2
	// minSamples makes at least ten latencies of the quieter rounds lie
	// beyond their p99.
	minSamples = 1000
	// hotRequests is the number of requests of one serve-hot round.
	hotRequests = 1000
)

// daemon is one running balignd process tree.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
}

// startDaemon launches balignd on an ephemeral port and returns once its
// /healthz answers 200.
func startDaemon(e *env, args ...string) (*daemon, error) {
	tmp := filepath.Join(e.work, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(e.work, "balignd.addr")
	os.Remove(addrFile)
	d := &daemon{}
	d.cmd = exec.Command(filepath.Join(e.bin, "balignd"),
		append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)...)
	// Sharded mode keeps its shard address files under TMPDIR.
	d.cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	d.cmd.Stderr = &d.stderr
	// A process group of its own lets stop reap shards the router leaves
	// behind; the death signal stops the tree if the benchmark dies first.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGTERM}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting balignd: %w", err)
	}
	for time.Since(start) < 30*time.Second {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.url = "http://" + strings.TrimSpace(string(b))
			if resp, err := http.Get(d.url + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("balignd did not become healthy: %s", d.stderr.String())
}

// stop drains the daemon with SIGTERM, kills its process group if it has
// not exited in 20 s, and returns its involuntary context switches,
// children included.
func (d *daemon) stop() (int64, error) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-done
		err = fmt.Errorf("balignd did not drain within 20s")
	}
	syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) // ESRCH when the group is already gone
	if d.cmd.ProcessState == nil {
		return 0, err
	}
	return d.cmd.ProcessState.SysUsage().(*syscall.Rusage).Nivcsw, err
}

// counters reads the daemon's telemetry counters from /debug/vars.
func (d *daemon) counters() (map[string]int64, error) {
	resp, err := http.Get(d.url + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var vars struct {
		Balignd struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"balignd"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	return vars.Balignd.Counters, nil
}

// reply is one request's outcome as the client saw it.
type reply struct {
	status int
	body   []byte
	cache  string // X-Balign-Cache: hit or miss
	shard  string // X-Balign-Shard (routed requests only)
	lat    time.Duration
	err    error
	// host is the machine's CPU time while the request was in flight.
	host cpuTimes
}

func post(c *http.Client, url string, body []byte) reply {
	host0 := hostCPU()
	start := time.Now()
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err, lat: time.Since(start), host: hostCPU().sub(host0)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	return reply{status: resp.StatusCode, body: b, err: err, lat: lat, host: hostCPU().sub(host0),
		cache: resp.Header.Get("X-Balign-Cache"), shard: resp.Header.Get("X-Balign-Shard")}
}

func newClient() *http.Client {
	return &http.Client{Timeout: 120 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: maxClients}}
}

// closedLoop sends bodies[order[i]] to urlOf(i) for every i from clients
// closed-loop clients, each of which sends its next request only when its
// previous reply has arrived. It returns the replies in order, with the
// wall time from the first send to the last reply.
func closedLoop(c *http.Client, clients int, urlOf func(i int) string, bodies []alignBody, order []int) ([]reply, time.Duration) {
	replies := make([]reply, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				replies[i] = post(c, urlOf(i), bodies[order[i]].Body)
			}
		}()
	}
	wg.Wait()
	return replies, time.Since(start)
}

// latencyWindow is the least machine CPU time (used + steal) over which
// request latencies are corrected for host steal: /proc/stat counts in
// 10 ms ticks, a request lasts 1-300 ms, and steal comes and goes within
// a round.
const latencyWindow = 200 * time.Millisecond

// unstolenLats corrects each reply's latency for host steal as busy
// corrects a round, over windows of consecutive replies that together saw
// at least latencyWindow of machine CPU time. Steal stretches a few
// requests far more than the rest, so one correction for a whole round
// understated the median and overstated the tail by up to 20%.
func unstolenLats(replies []reply) []time.Duration {
	out := make([]time.Duration, 0, len(replies))
	var win cpuTimes
	first := 0
	for i, r := range replies {
		win.used += r.host.used
		win.steal += r.host.steal
		if win.used+win.steal < latencyWindow && i < len(replies)-1 {
			continue
		}
		for _, w := range replies[first : i+1] {
			out = append(out, unstolen(w.lat, win))
		}
		first, win = i+1, cpuTimes{}
	}
	return out
}

// tally checks replies against the references and counts what the serve
// metrics need.
type tally struct {
	ok, failed, rejected, hits, misses int
	samples                            []time.Duration
}

func (t *tally) add(g *gate, b alignBody, r reply) {
	t.samples = append(t.samples, r.lat)
	switch r.cache {
	case "hit":
		t.hits++
	case "miss":
		t.misses++
	}
	switch {
	case r.err != nil:
		t.failed++
	case r.status != http.StatusOK:
		t.failed++
		if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable ||
			r.status == http.StatusGatewayTimeout {
			t.rejected++
		}
	case !g.match("align/"+b.ID, digest(r.body)):
		t.failed++
	default:
		t.ok++
	}
}

func (t *tally) hitRatio() float64 {
	if t.hits+t.misses == 0 {
		return 0
	}
	return float64(t.hits) / float64(t.hits+t.misses)
}

// alignCPI is the relative CPI the cost model predicts for a response's
// TryN plan: (I + dynamic instruction delta + expected branch cycles) / I,
// where I is the training run's instruction count.
func alignCPI(body []byte, instrs uint64) (float64, error) {
	var resp serve.AlignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("decoding align response: %w", err)
	}
	for _, p := range resp.Plans {
		if p.Algo == "tryn" {
			return (float64(instrs) + float64(p.Stats.DynInstrDelta) + p.Cost) / float64(instrs), nil
		}
	}
	return 0, fmt.Errorf("align response %s has no tryn plan", resp.Name)
}

// poolCPI is the geometric mean of alignCPI over one reply per body.
func poolCPI(g *gate, name string, bodies []alignBody, replies map[int]reply) (float64, error) {
	var cpis []float64
	for i, b := range bodies {
		r, ok := replies[i]
		if !ok || r.status != http.StatusOK {
			continue
		}
		c, err := alignCPI(r.body, b.Instrs)
		if err != nil {
			return 0, err
		}
		cpis = append(cpis, c)
	}
	if len(cpis) != len(bodies) {
		g.failures = append(g.failures, fmt.Sprintf("%s: %d of %d bodies answered", name, len(cpis), len(bodies)))
	}
	cpi := geomean(cpis)
	g.match(name+"/cpi_try15", strconv.FormatFloat(cpi, 'f', 9, 64))
	return cpi, nil
}

// serveRound is one measured pass of a closed loop against a daemon tree.
func serveRound(d *daemon, clients int, bodies []alignBody, order []int, g *gate, t *tally) (roundStat, []reply, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	pids := processTree(d.cmd.Process.Pid)
	before, err := sampleTree(pids)
	if err != nil {
		return roundStat{}, nil, err
	}
	host0 := hostCPU()
	replies, wall := closedLoop(c, clients, func(int) string { return d.url + alignPath }, bodies, order)
	host := hostCPU().sub(host0)
	after, err := sampleTree(pids)
	if err != nil {
		return roundStat{}, nil, err
	}
	rs := roundStat{wall: wall, cpu: after.cpu - before.cpu, rssMB: after.hwmMB, host: host}
	ok0, failed0 := t.ok, t.failed
	for i, r := range replies {
		t.add(g, bodies[order[i]], r)
	}
	rs.lats = unstolenLats(replies)
	rs.ops, rs.failed = t.ok-ok0, t.failed-failed0
	return rs, replies, nil
}

// serveSpec is one serve workload.
type serveSpec struct {
	name   string
	bodies []alignBody
	// clients is the number of closed-loop clients of a round.
	clients int
	// args are the extra balignd flags. A warm workload sends every body
	// once after launch, as part of set-up, so that it measures hits.
	args []string
	warm bool
	// order is one round's request list, as indices into bodies.
	order func(round int) []int
	// The measured requests' cache hit ratio must lie in [minHit, maxHit]:
	// the workload must take the path it is named after.
	minHit, maxHit float64
}

// launch starts the workload's daemon and, for a warm workload, fills its
// caches. It returns the set-up time, corrected for host steal, and, when
// it warmed, one reply per body.
func (s serveSpec) launch(e *env) (*daemon, time.Duration, map[int]reply, error) {
	host0, start := hostCPU(), time.Now()
	d, err := startDaemon(e, s.args...)
	if err != nil || !s.warm {
		return d, unstolen(time.Since(start), hostCPU().sub(host0)), nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	warm := map[int]reply{}
	for i, b := range s.bodies {
		r := post(c, d.url+alignPath, b.Body)
		if r.err != nil || r.status != http.StatusOK {
			d.stop()
			return nil, 0, nil, fmt.Errorf("warming %s: status %d: %v", b.ID, r.status, r.err)
		}
		e.gate.match("align/"+b.ID, digest(r.body))
		warm[i] = r
	}
	return d, unstolen(time.Since(start), hostCPU().sub(host0)), warm, nil
}

func (s serveSpec) checkHits(g *gate, t *tally) {
	if hr := t.hitRatio(); hr < s.minHit || hr > s.maxHit {
		g.failures = append(g.failures, fmt.Sprintf("%s: cache hit ratio %.4f, want %g to %g", s.name, hr, s.minHit, s.maxHit))
	}
}

// runServeCold sends the whole request pool, every body distinct, to a
// fresh single-node daemon per round, so every request computes.
func runServeCold(e *env) (*outcome, error) {
	bodies, err := servePool(coldPool)
	if err != nil {
		return nil, err
	}
	s := serveSpec{name: "serve-cold", bodies: bodies, clients: 2,
		order: func(r int) []int { return coldOrder(e.seed, r) }}
	if e.traced {
		return traceServeCold(e, s)
	}
	return runServe(e, s)
}

// runServeHot repeats a small corpus against a warm two-shard daemon, so
// every measured request is a routed cache hit.
func runServeHot(e *env) (*outcome, error) {
	corpus, err := servePool(hotCorpus)
	if err != nil {
		return nil, err
	}
	s := serveSpec{name: "serve-hot", bodies: corpus, clients: 1, args: []string{"-shards", "2"}, warm: true,
		order: func(r int) []int { return hotPicks(e.seed, r, hotRequests) }, minHit: 0.99, maxHit: 1}
	if e.traced {
		return traceServeHot(e, s)
	}
	return runServe(e, s)
}

// runServe measures rounds, each against a freshly launched daemon, until
// the run has lasted its time and its quieter rounds hold minSamples
// latencies.
func runServe(e *env, s serveSpec) (*outcome, error) {
	var (
		rounds []roundStat
		setups []time.Duration
		t      tally
		cpi    float64
	)
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start) < e.seconds || quietSamples(rounds) < minSamples; r++ {
		d, setup, byBody, err := s.launch(e)
		if err != nil {
			return nil, err
		}
		order := s.order(r)
		rs, replies, err := serveRound(d, s.clients, s.bodies, order, e.gate, &t)
		n, stopErr := d.stop()
		if err := errors.Join(err, stopErr); err != nil {
			return nil, err
		}
		rs.nivcsw = n
		rounds = append(rounds, rs)
		setups = append(setups, setup)
		if r == 0 {
			if byBody == nil {
				byBody = map[int]reply{}
				for i, rp := range replies {
					byBody[order[i]] = rp
				}
			}
			if cpi, err = poolCPI(e.gate, s.name, s.bodies, byBody); err != nil {
				return nil, err
			}
		}
	}
	s.checkHits(e.gate, &t)
	failed, nivcsw := totals(rounds)
	attempted := len(t.samples)
	m, info := endToEnd(rounds, setups, attempted, failed, cpi)
	info["cache_hit_ratio"] = t.hitRatio()
	info["rejected"] = t.rejected
	return &outcome{attempted: attempted, failed: failed, metrics: m, nivcsw: nivcsw, info: info}, nil
}

// traceRequests replays bodies[order] through an in-process server, timing
// the cache-key derivation and the handler of each; with alignToo it also
// repeats the handler's alignment calls, one span per algorithm.
func traceRequests(t *tracer, srv *serve.Server, bodies []alignBody, order []int, alignToo bool) error {
	h := srv.Handler()
	model, err := cost.ForArch(predict.ArchBTFNT)
	if err != nil {
		return err
	}
	for _, i := range order {
		b := bodies[i]
		err := t.do(0, "request", func(id int) error {
			if err := t.do(id, "serve.key", func(int) error {
				_, err := serve.RequestKey(alignPath, b.Body)
				return err
			}); err != nil {
				return err
			}
			if err := t.do(id, "serve.handler", func(int) error {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, alignPath, bytes.NewReader(b.Body)))
				if rec.Code != http.StatusOK {
					return fmt.Errorf("in-process %s: status %d: %s", b.ID, rec.Code, rec.Body.String())
				}
				return nil
			}); err != nil {
				return err
			}
			if !alignToo {
				return nil
			}
			return traceAlign(t, id, b, model)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// traceAlign decodes one align body and plans it with the algorithms the
// endpoint runs by default, as the handler does.
func traceAlign(t *tracer, parent int, b alignBody, model cost.Model) error {
	var req serve.AlignRequest
	if err := json.Unmarshal(b.Body, &req); err != nil {
		return err
	}
	var prog *ir.Program
	if err := t.do(parent, "asm.assemble", func(int) error {
		var err error
		prog, err = asm.Assemble(req.Asm)
		return err
	}); err != nil {
		return err
	}
	var pf *profile.Profile
	if err := t.do(parent, "profile.read", func(int) error {
		var err error
		pf, err = profile.Read(strings.NewReader(req.Profile))
		return err
	}); err != nil {
		return err
	}
	for _, algo := range []core.Algorithm{core.AlgoGreedy, core.AlgoCost, core.AlgoTryN, core.AlgoExtTSP} {
		opts := core.Options{Algorithm: algo, Order: core.OrderHottest}
		if algo == core.AlgoCost || algo == core.AlgoTryN {
			opts.Model = model
		}
		if _, err := alignSpan(t, parent, prog, pf, opts); err != nil {
			return err
		}
	}
	return nil
}

// traceServeCold measures one untraced round against the daemon, then
// replays the same bodies through an in-process server with spans.
func traceServeCold(e *env, s serveSpec) (*outcome, error) {
	d, _, _, err := s.launch(e)
	if err != nil {
		return nil, err
	}
	var t tally
	order := s.order(0)
	plain, _, err := serveRound(d, s.clients, s.bodies, order, e.gate, &t)
	nivcsw, stopErr := d.stop()
	if err := errors.Join(err, stopErr); err != nil {
		return nil, err
	}
	s.checkHits(e.gate, &t)
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	if err := traceRequests(tr, srv, s.bodies, order, true); err != nil {
		return nil, err
	}
	tr.finish()
	m := layerMetrics(tr)
	clientP50 := percentile(t.samples, 0.5)
	m["serve.transport_ms"] = metric{ms(clientP50 - percentile(tr.durations("serve.handler"), 0.5)), "ms"}
	m["serve.cache_hit_ratio"] = metric{t.hitRatio(), "ratio"}
	m["serve.rejected"] = metric{float64(t.rejected), "count"}
	m["trace_overhead_s"] = metric{(tr.spans[0].dur() - plain.wall).Seconds(), "s"}
	info := map[string]any{"untraced_wall_s": plain.wall.Seconds(), "traced_wall_s": tr.spans[0].dur().Seconds(),
		"client_p50_ms": ms(clientP50)}
	return &outcome{attempted: len(t.samples), failed: t.failed, metrics: m, nivcsw: nivcsw, info: info, trace: tr}, nil
}

// shardURLs reads the router's backend addresses from /shardz.
func shardURLs(d *daemon) ([]string, error) {
	resp, err := http.Get(d.url + "/shardz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Shards []struct {
			URL string `json:"url"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding /shardz: %w", err)
	}
	urls := make([]string, len(doc.Shards))
	for i, s := range doc.Shards {
		urls[i] = s.URL
	}
	return urls, nil
}

// sendDirect replays a routed round straight to the shard that answered
// each request, bypassing the router.
func sendDirect(d *daemon, clients int, bodies []alignBody, order []int, routed []reply, g *gate, t *tally) error {
	urls, err := shardURLs(d)
	if err != nil {
		return err
	}
	owner := map[int]string{}
	for i, r := range routed {
		k, err := strconv.Atoi(r.shard)
		if err != nil || k < 0 || k >= len(urls) {
			return fmt.Errorf("routed reply for %s names shard %q", bodies[order[i]].ID, r.shard)
		}
		owner[order[i]] = urls[k] + alignPath
	}
	c := newClient()
	defer c.CloseIdleConnections()
	replies, _ := closedLoop(c, clients, func(i int) string { return owner[order[i]] }, bodies, order)
	for i, r := range replies {
		t.add(g, bodies[order[i]], r)
	}
	return nil
}

// traceServeHot measures one hot round through the router, the same
// requests sent straight to their owning shards, and the same requests
// through a warm in-process server with spans.
func traceServeHot(e *env, s serveSpec) (*outcome, error) {
	d, _, _, err := s.launch(e)
	if err != nil {
		return nil, err
	}
	var routed, direct tally
	picks := s.order(0)
	plain, replies, err := serveRound(d, s.clients, s.bodies, picks, e.gate, &routed)
	var counters map[string]int64
	if err == nil {
		counters, err = d.counters()
	}
	if err == nil {
		err = sendDirect(d, s.clients, s.bodies, picks, replies, e.gate, &direct)
	}
	nivcsw, stopErr := d.stop()
	if err := errors.Join(err, stopErr); err != nil {
		return nil, err
	}
	s.checkHits(e.gate, &routed)

	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	for _, b := range s.bodies {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, alignPath, bytes.NewReader(b.Body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("warming in-process %s: status %d", b.ID, rec.Code)
		}
	}
	tr := newTracer()
	if err := traceRequests(tr, srv, s.bodies, picks, false); err != nil {
		return nil, err
	}
	tr.finish()
	m := layerMetrics(tr)
	routerP50, directP50 := percentile(routed.samples, 0.5), percentile(direct.samples, 0.5)
	m["serve.transport_ms"] = metric{ms(directP50 - percentile(tr.durations("serve.handler"), 0.5)), "ms"}
	m["router.hop_ms"] = metric{ms(routerP50 - directP50), "ms"}
	m["serve.cache_hit_ratio"] = metric{routed.hitRatio(), "ratio"}
	m["serve.rejected"] = metric{float64(routed.rejected + direct.rejected), "count"}
	m["router.retries"] = metric{float64(counters["router.retries"]), "count"}
	m["trace_overhead_s"] = metric{(tr.spans[0].dur() - plain.wall).Seconds(), "s"}
	info := map[string]any{"untraced_wall_s": plain.wall.Seconds(), "traced_wall_s": tr.spans[0].dur().Seconds(),
		"router_p50_ms": ms(routerP50), "direct_p50_ms": ms(directP50)}
	attempted := len(routed.samples) + len(direct.samples)
	return &outcome{attempted: attempted, failed: routed.failed + direct.failed, metrics: m, nivcsw: nivcsw, info: info, trace: tr}, nil
}
