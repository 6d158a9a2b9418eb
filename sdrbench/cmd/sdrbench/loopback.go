package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// A loopback serves one of the system's HTTP handlers on 127.0.0.1 to a
// single keep-alive client, the way a remote node or operator reaches it.
// The handler can be swapped between ops, so a workload can start a fresh
// service state without the client reconnecting inside a timed op.
type loopback struct {
	srv     *http.Server
	served  chan error
	handler atomic.Pointer[handlerBox]
	base    string
	client  *http.Client
}

type handlerBox struct{ http.Handler }

func startLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listen: %w", err)
	}
	lb := &loopback{
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
	}
	lb.swap(h)
	lb.srv = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			lb.handler.Load().ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { lb.served <- lb.srv.Serve(ln) }()
	return lb, nil
}

// swap routes every later request to h.
func (lb *loopback) swap(h http.Handler) { lb.handler.Store(&handlerBox{h}) }

// do makes one request and returns the status and the whole body.
func (lb *loopback) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, lb.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := lb.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return resp.StatusCode, out, nil
}

// close stops the server, waits for it to return, and drops the client's
// connection.
func (lb *loopback) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := lb.srv.Shutdown(ctx)
	if served := <-lb.served; !errors.Is(served, http.ErrServerClosed) && err == nil {
		err = served
	}
	lb.client.CloseIdleConnections()
	return err
}
