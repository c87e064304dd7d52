package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"jetty/internal/cluster"
	"jetty/internal/service"
	"jetty/internal/sim"
	"jetty/internal/smp"
	"jetty/internal/store"
	"jetty/internal/trace"
)

// daemon is one in-process jettyd: a service.Server behind a real
// loopback HTTP listener, exactly as cmd/jettyd serves it.
type daemon struct {
	svc  *service.Server
	srv  *http.Server
	url  string
	done chan struct{}
}

func startDaemon(opts service.Options) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	svc := service.New(opts)
	d := &daemon{
		svc:  svc,
		srv:  &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		_ = d.srv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	return d, nil
}

// close shuts the listener down, waits for the serve loop to exit and
// stops the engine (and, for a coordinator, the coordinator).
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		_ = d.srv.Close()
	}
	<-d.done
	d.svc.Close()
}

// env is one workload's booted system: the daemon the client talks to
// (front), any cluster workers behind it, and the inputs set-up made.
type env struct {
	front   *daemon
	workers []*daemon
	coord   *cluster.Coordinator
	stores  []*store.Store // every durable store, front first
	dataDir string
	trace   sim.TraceInput // cluster-trace-rerun's captured upload
}

func (e *env) close() {
	for _, d := range append([]*daemon{e.front}, e.workers...) {
		if d != nil {
			d.close()
		}
	}
}

// daemons lists every daemon, front first.
func (e *env) daemons() []*daemon { return append([]*daemon{e.front}, e.workers...) }

// setup boots workload w's system under dataDir (empty, or left by an
// earlier boot of the same system): daemons, stores and, for
// cluster-trace-rerun, the captured and uploaded trace.
func setup(ctx context.Context, w string, seed int64, dataDir string, c *client) (e *env, err error) {
	e = &env{dataDir: dataDir}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	nproc := runtime.NumCPU()
	switch w {
	case wlFilter, wlLive:
		e.front, err = startDaemon(service.Options{Workers: nproc})
	case wlL2:
		var st *store.Store
		if st, err = store.Open(filepath.Join(dataDir, "single")); err != nil {
			return e, err
		}
		e.stores = []*store.Store{st}
		e.front, err = startDaemon(service.Options{Workers: nproc, Store: st})
	case wlCluster:
		err = setupCluster(ctx, e, seed, c)
	default:
		err = fmt.Errorf("unknown workload %q", w)
	}
	if err != nil {
		return e, err
	}
	// Set-up ends when every daemon answers its readiness probe.
	for _, d := range e.daemons() {
		if err := c.do(ctx, http.MethodGet, d.url+"/healthz", nil, nil); err != nil {
			return e, err
		}
	}
	return e, nil
}

// clusterWorkers is the cluster size; each worker runs one simulation
// worker, so the cluster uses at most two host CPUs for simulation.
const clusterWorkers = 2

func setupCluster(ctx context.Context, e *env, seed int64, c *client) error {
	coordStore, err := store.Open(filepath.Join(e.dataDir, "coordinator"))
	if err != nil {
		return err
	}
	e.stores = append(e.stores, coordStore)
	var clients []*cluster.Client
	for i := 0; i < clusterWorkers; i++ {
		st, err := store.Open(filepath.Join(e.dataDir, fmt.Sprintf("worker%d", i)))
		if err != nil {
			return err
		}
		e.stores = append(e.stores, st)
		d, err := startDaemon(service.Options{Workers: 1, Store: st, Role: "worker"})
		if err != nil {
			return err
		}
		e.workers = append(e.workers, d)
		cl, err := cluster.NewClient(d.url)
		if err != nil {
			return err
		}
		clients = append(clients, cl)
	}
	e.coord, err = cluster.New(cluster.Options{Workers: clients, Store: sim.NewDiskCache(coordStore)})
	if err != nil {
		return err
	}
	// The coordinator's own engine runs no sweep cells (they shard to the
	// workers); one worker keeps its idle pool minimal.
	e.front, err = startDaemon(service.Options{Workers: 1, Store: coordStore, Cluster: e.coord, Role: "coordinator"})
	if err != nil {
		e.coord.Close()
		return err
	}

	data, err := captureTrace(ctx, seed)
	if err != nil {
		return err
	}
	var info service.TraceInfo
	if err := c.do(ctx, http.MethodPost, e.front.url+"/v1/traces", data, &info); err != nil {
		return fmt.Errorf("upload trace: %w", err)
	}
	e.trace, err = sim.LoadTrace("", data)
	if err != nil {
		return err
	}
	if e.trace.Digest != info.Digest {
		return errors.New("uploaded trace digest differs from the local one")
	}
	return nil
}

// captureTrace records the cluster workload's JTRC trace: a run of the
// seed's generator spec on the paper machine, teed into a writer.
func captureTrace(ctx context.Context, seed int64) ([]byte, error) {
	sp, err := clusterTraceSpec(seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, 4, trace.WriterOptions{Meta: trace.Meta{App: sp.Name, Note: "captured by jettybench"}})
	if err != nil {
		return nil, err
	}
	if _, err := sim.RunAppCapturedCtx(ctx, sp, smp.PaperConfig(4), tw, nil); err != nil {
		return nil, fmt.Errorf("capture trace: %w", err)
	}
	if err := tw.Close(); err != nil {
		return nil, fmt.Errorf("capture trace: %w", err)
	}
	return buf.Bytes(), nil
}
