package main

// The system under test, in process: serve.New nodes behind net/http on
// loopback, reached through serve/client (one node) or serve/shard.Router
// (several). Connections per node are capped at the generator's goroutine
// count, which is the machine's CPU count.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/journal"
	"repro/internal/serve/shard"
)

// maxConns is the per-node connection cap and the generator goroutine
// budget.
const maxConns = 2

type node struct {
	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	url     string
	jr      *journal.Journal
	dir     string
}

type stack struct {
	nodes  []*node
	hc     *http.Client
	single *client.Client // one-node workloads
	router *shard.Router  // routed workloads
}

// startStack boots w's nodes, each journaled into its own directory
// under tmp when the workload asks for a journal.
func startStack(w *workload, tmp string) (*stack, error) {
	st := &stack{hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
	}}}
	for i := 0; i < w.nodes; i++ {
		nd, err := startNode(w, tmp)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("starting node %d: %w", i, err)
		}
		st.nodes = append(st.nodes, nd)
	}
	if w.nodes == 1 {
		st.single = client.New(st.nodes[0].url, st.hc)
		return st, nil
	}
	var urls []string
	for _, nd := range st.nodes {
		urls = append(urls, nd.url)
	}
	rt, err := shard.NewRouter(urls, shard.RouterOptions{HTTPClient: st.hc})
	if err != nil {
		st.close()
		return nil, err
	}
	st.router = rt
	return st, nil
}

func startNode(w *workload, tmp string) (*node, error) {
	nd := &node{}
	reg := obs.NewRegistry()
	cfg := serve.Config{Workers: w.workers, Registry: reg}
	if w.journal {
		dir, err := os.MkdirTemp(tmp, "journal-")
		if err != nil {
			return nil, err
		}
		nd.dir = dir
		jr, err := journal.Open(journal.Options{Dir: dir, Registry: reg})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		nd.jr, cfg.Journal = jr, jr
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		nd.close()
		return nil, err
	}
	nd.srv = serve.New(cfg)
	nd.httpSrv = &http.Server{Handler: nd.srv.Handler()}
	nd.served = make(chan error, 1)
	go func() { nd.served <- nd.httpSrv.Serve(ln) }()
	nd.url = "http://" + ln.Addr().String()
	return nd, nil
}

// waitReady blocks until every node answers /readyz.
func (st *stack) waitReady(ctx context.Context) error {
	if st.router != nil {
		return st.router.WaitReady(ctx)
	}
	for {
		err := st.single.Ready(ctx)
		if err == nil || ctx.Err() != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains and stops every node, waiting for each HTTP server
// goroutine to exit, and removes the journal directories.
func (st *stack) close() error {
	var errs []error
	for _, nd := range st.nodes {
		errs = append(errs, nd.close())
	}
	st.hc.CloseIdleConnections()
	return errors.Join(errs...)
}

func (nd *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if nd.httpSrv != nil {
		errs = append(errs, nd.httpSrv.Shutdown(ctx))
		if err := <-nd.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if nd.srv != nil {
		errs = append(errs, nd.srv.Shutdown(ctx))
	}
	if nd.jr != nil {
		errs = append(errs, nd.jr.Close())
	}
	if nd.dir != "" {
		errs = append(errs, os.RemoveAll(nd.dir))
	}
	return errors.Join(errs...)
}
