package main

// The cogmimod stack, assembled in-process the way cmd/cogmimod
// assembles it, plus the HTTP client side of the serve workloads.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
)

// cogmimod's defaults for the knobs the benchmark does not vary.
const (
	defaultQueue      = 64
	defaultCache      = 256
	defaultStoreBytes = 256 << 20
	defaultTraceBuf   = 256
	defaultSlowTrace  = 10 * time.Second
	probeInterval     = 5 * time.Second
)

// node is one running cogmimod: optional store, service, optional
// campaign manager and the HTTP API on a 127.0.0.1 listener.
type node struct {
	addr  string
	st    *store.Store
	svc   *service.Service
	mgr   *campaign.Manager
	srv   *http.Server
	serve chan error

	stopOnce sync.Once
	stopErr  error
}

// nodeConfig selects what a node runs.
type nodeConfig struct {
	storeDir string         // "" keeps results in memory only
	runner   service.Runner // nil means service.ExperimentRunner
}

// startNode boots a node in cogmimod's order: store, service with the
// trace recorder, cache warm-up, workers, campaign resume, listener.
func startNode(cfg nodeConfig) (*node, error) {
	logger := quietLogger()
	n := &node{}
	if cfg.storeDir != "" {
		st, err := store.Open(store.Options{Dir: cfg.storeDir, MaxBytes: defaultStoreBytes, Logger: logger})
		if err != nil {
			return nil, err
		}
		n.st = st
	}
	runner := cfg.runner
	if runner == nil {
		runner = service.ExperimentRunner
	}
	recorder := obs.NewTraceRecorder(defaultTraceBuf, 0)
	svc, err := service.New(service.Config{
		QueueDepth:   defaultQueue,
		CacheEntries: defaultCache,
		Runner:       runner,
		KnownIDs:     service.KnownExperimentIDs(),
		Logger:       logger,
		Store:        n.st,
		Recorder:     recorder,
		SlowTrace:    defaultSlowTrace,
	})
	if err != nil {
		n.closeStore()
		return nil, err
	}
	n.svc = svc
	svc.WarmFromStore()
	svc.Start()
	if n.st != nil {
		n.mgr = campaign.NewManager(n.st, 0, logger)
		n.mgr.ResumeAll()
	}
	if err := n.listen(recorder); err != nil {
		n.stop()
		return nil, err
	}
	return n, nil
}

// listen serves the node's HTTP API on an ephemeral 127.0.0.1 port.
func (n *node) listen(recorder *obs.TraceRecorder) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.addr = ln.Addr().String()
	n.srv = &http.Server{
		Handler: httpapi.NewMux(n.svc, httpapi.Config{
			Logger:    quietLogger(),
			NodeID:    n.addr,
			Campaigns: n.mgr,
			Recorder:  recorder,
		}),
		ReadHeaderTimeout: 5 * time.Second,
	}
	n.serve = make(chan error, 1)
	go func() { n.serve <- n.srv.Serve(ln) }()
	return nil
}

// stop shuts the node down in cogmimod's order and waits for every
// goroutine it started. Later calls return the first call's error.
func (n *node) stop() error {
	n.stopOnce.Do(func() { n.stopErr = n.shutdown() })
	return n.stopErr
}

func (n *node) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if n.srv != nil {
		errs = append(errs, n.srv.Shutdown(ctx))
		if err := <-n.serve; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if n.mgr != nil {
		errs = append(errs, n.mgr.Stop(ctx))
	}
	if n.svc != nil {
		errs = append(errs, n.svc.Stop(ctx))
	}
	errs = append(errs, n.closeStore())
	return errors.Join(errs...)
}

func (n *node) closeStore() error {
	if n.st == nil {
		return nil
	}
	return n.st.Close()
}

// coordinator is a cogmimod in coordinator mode (as with -peers) over
// worker nodes reached through cluster.HTTPTransport.
type coordinator struct {
	*node
	workers []*node
	stopReg context.CancelFunc
	regDone sync.WaitGroup
}

// startCoordinator boots nWorkers plain nodes and a coordinator node
// whose jobs shard their Monte-Carlo chunks across them. wrapTransport
// and wrapExecutor, when non-nil, wrap the HTTP transport and the
// coordinator's executor; traced runs set them.
func startCoordinator(storeDir string, nWorkers int, wrapTransport func(cluster.Transport) cluster.Transport, wrapExecutor func(sim.Executor) sim.Executor) (*coordinator, error) {
	c := &coordinator{}
	var addrs []string
	for i := 0; i < nWorkers; i++ {
		w, err := startNode(nodeConfig{})
		if err != nil {
			c.stop()
			return nil, err
		}
		c.workers = append(c.workers, w)
		addrs = append(addrs, w.addr)
	}
	var tr cluster.Transport = &cluster.HTTPTransport{}
	if wrapTransport != nil {
		tr = wrapTransport(tr)
	}
	reg := cluster.NewRegistry(tr, addrs...)
	ctx, cancel := context.WithCancel(context.Background())
	c.stopReg = cancel
	c.regDone.Add(1)
	go func() {
		defer c.regDone.Done()
		reg.Run(ctx, probeInterval)
	}()
	var ex sim.Executor = cluster.NewCoordinator(tr, reg, cluster.Config{LocalFallback: true})
	if wrapExecutor != nil {
		ex = wrapExecutor(ex)
	}
	n, err := startNode(nodeConfig{
		storeDir: storeDir,
		runner: func(jctx context.Context, req service.Request) (string, error) {
			return service.ExperimentRunner(sim.WithExecutor(jctx, ex), req)
		},
	})
	if err != nil {
		c.stop()
		return nil, err
	}
	c.node = n
	return c, nil
}

func (c *coordinator) stop() error {
	var errs []error
	if c.node != nil {
		errs = append(errs, c.node.stop())
	}
	if c.stopReg != nil {
		c.stopReg()
		c.regDone.Wait()
	}
	for _, w := range c.workers {
		errs = append(errs, w.stop())
	}
	return errors.Join(errs...)
}

// client is one keep-alive HTTP client, as one caller of the daemon.
type client struct {
	http *http.Client
	addr string
}

func newClient(addr string) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		addr: addr,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// submit POSTs a wait:true experiment request and returns the finished
// job with the client-side latency up to the last response byte.
func (c *client) submit(req service.Request) (httpapi.JobResponse, time.Duration, error) {
	body, err := json.Marshal(httpapi.SubmitRequest{Request: req, Wait: true})
	if err != nil {
		return httpapi.JobResponse{}, 0, err
	}
	start := time.Now()
	resp, err := c.http.Post("http://"+c.addr+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		return httpapi.JobResponse{}, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return httpapi.JobResponse{}, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return httpapi.JobResponse{}, lat, fmt.Errorf("POST %s %s: %s: %s", req.ID, c.addr, resp.Status, bytes.TrimSpace(data))
	}
	var jr httpapi.JobResponse
	if err := json.Unmarshal(data, &jr); err != nil {
		return httpapi.JobResponse{}, lat, err
	}
	return jr, lat, nil
}

// healthy polls GET /healthz until it answers 200.
func (c *client) healthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.http.Get("http://" + c.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v (last error %v)", c.addr, timeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// sample is one answered request as the client saw it.
type sample struct {
	lat time.Duration
	job httpapi.JobResponse
}

// selfMs is the client latency the job's own queued→finished interval
// does not explain: HTTP, JSON and scheduling outside the job.
func (s sample) selfMs() float64 {
	return float64((s.lat - s.job.Finished.Sub(s.job.Queued)).Nanoseconds()) / 1e6
}

func (s sample) queueMs() float64 {
	return float64(s.job.Started.Sub(s.job.Queued).Nanoseconds()) / 1e6
}

func (s sample) runMs() float64 {
	return float64(s.job.Finished.Sub(s.job.Started).Nanoseconds()) / 1e6
}

// openClients returns n keep-alive clients whose connections are
// already open, so no measured request pays for a TCP handshake.
func openClients(addr string, n int) ([]*client, error) {
	cls := make([]*client, n)
	for i := range cls {
		cls[i] = newClient(addr)
		if err := cls[i].healthy(time.Minute); err != nil {
			closeClients(cls[:i+1])
			return nil, err
		}
	}
	return cls, nil
}

func closeClients(cls []*client) {
	for _, c := range cls {
		c.close()
	}
}

// drive sends reqs from concurrent closed-loop clients: client c sends
// reqs[c], reqs[c+len(cls)], ... each after the previous answer. It
// returns one sample per request, in request order.
func drive(cls []*client, reqs []service.Request) ([]sample, []error) {
	out := make([]sample, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for c, cl := range cls {
		wg.Add(1)
		go func(c int, cl *client) {
			defer wg.Done()
			for i := c; i < len(reqs); i += len(cls) {
				jr, lat, err := cl.submit(reqs[i])
				out[i], errs[i] = sample{lat: lat, job: jr}, err
			}
		}(c, cl)
	}
	wg.Wait()
	return out, errs
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
