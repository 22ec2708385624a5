package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"mlperf/internal/front"
	"mlperf/internal/serve"
	"mlperf/internal/sweep"
	"mlperf/internal/telemetry"
)

// backends is how many serve.Server instances sit behind the front.
const backends = 2

// cluster is one front over two backends, all in this process on
// loopback listeners, sharing one cache dir.
type cluster struct {
	front    *front.Front
	backends []*serve.Server
	servers  []*http.Server // backends first, the front last
	serving  sync.WaitGroup
	hop      *http.Transport // the front's transport to the backends
	url      string          // the front's base URL
}

// serveConfig is the backends' configuration: quota off and admission
// limits well above the two closed-loop clients, so nothing is shed at
// benchmark load.
func serveConfig(eng *sweep.Engine, reg *telemetry.Registry) serve.Config {
	return serve.Config{
		Engine:      eng,
		Telemetry:   reg,
		MaxInFlight: 8,
		MaxQueue:    16,
		TenantRate:  -1,
	}
}

// boot starts a cluster over dir. With tr non-nil every layer boundary
// the benchmark can reach from outside is wrapped in tr's timers.
func boot(dir string, tr *tracer) (*cluster, error) {
	c := &cluster{}
	var urls []string
	for range backends {
		// Wired exactly as serve.New wires a CacheDir: the disk tier
		// behind a circuit breaker, attached to the engine as its store.
		ds, err := sweep.OpenDiskStore(dir)
		if err != nil {
			c.close()
			return nil, err
		}
		var disk serve.FallibleStore = ds
		if tr != nil {
			disk = tr.store(ds)
		}
		reg := telemetry.New()
		eng := sweep.NewEngine(0)
		eng.SetStore(serve.NewBreaker(disk, serve.BreakerConfig{Registry: reg}))
		s, err := serve.New(serveConfig(eng, reg))
		if err != nil {
			c.close()
			return nil, err
		}
		c.backends = append(c.backends, s)
		var h http.Handler = s.Handler()
		if tr != nil {
			h = tr.serveHandler(h)
		}
		u, err := c.listen(h)
		if err != nil {
			c.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	c.hop = http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = c.hop
	if tr != nil {
		rt = hopTransport{next: rt}
	}
	f, err := front.New(front.Config{Backends: urls, Client: &http.Client{Transport: rt}})
	if err != nil {
		c.close()
		return nil, err
	}
	c.front = f
	var h http.Handler = f.Handler()
	if tr != nil {
		h = tr.frontHandler(h)
	}
	if c.url, err = c.listen(h); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (c *cluster) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	c.servers = append(c.servers, hs)
	c.serving.Add(1)
	go func() {
		defer c.serving.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("serve %s: %v", ln.Addr(), err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// ready waits until the front answers /readyz.
func (c *cluster) ready(client *http.Client) error {
	var last error
	for range 100 {
		resp, err := client.Get(c.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("front /readyz: %s", resp.Status)
		}
		last = err
		time.Sleep(10 * time.Millisecond)
	}
	return last
}

// snapshot is the cluster's counters at one instant.
type snapshot struct {
	front front.Stats
	serve []serve.Stats
}

func (c *cluster) snapshot() snapshot {
	s := snapshot{front: c.front.Snapshot()}
	for _, b := range c.backends {
		s.serve = append(s.serve, b.Snapshot())
	}
	return s
}

// close shuts every server down (front first) and waits for them.
func (c *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(c.servers) - 1; i >= 0; i-- {
		if err := c.servers[i].Shutdown(ctx); err != nil {
			c.servers[i].Close()
		}
	}
	c.serving.Wait()
	if c.front != nil {
		c.front.Close()
	}
	// The backends run on our own listeners, so their Shutdown has no
	// listener to drain; an expired context just cancels what remains.
	done, stop := context.WithCancel(context.Background())
	stop()
	for _, b := range c.backends {
		_ = b.Shutdown(done) // nil: there is no listener of its own to fail
	}
	if c.hop != nil {
		c.hop.CloseIdleConnections()
	}
}
