package serve

import (
	"context"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"tmi3d/internal/flow"
)

// TestNoGoroutineLeak drives every request shape that starts or waits on a
// goroutine — a job, a singleflight join, a /v1/compare fan-out, a 499 and a
// 504 — through a real listener, then shuts the daemon down. The goroutine
// count must return to its value before NewServer: a worker that never
// exits, a fan-out side nobody receives from, or a request goroutine parked
// on a context nobody cancels all show up here.
func TestNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()

	release := make(chan struct{})
	started := make(chan struct{}, 5) // one per job the test starts
	s, err := NewServer(Config{StoreDir: t.TempDir(), Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.runFlow = func(cfg flow.Config) (*flow.Result, error) {
		started <- struct{}{}
		if cfg.Circuit != "FPU" {
			<-release // AES and DES jobs wait for the test
		}
		return stubResult(cfg), nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	root := "http://" + l.Addr().String()
	fetch := func(ctx context.Context, path string) (int, error) {
		req, err := http.NewRequestWithContext(ctx, "GET", root+path, nil)
		if err != nil {
			return 0, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	mustGet := func(path string, want int) {
		t.Helper()
		if code, err := fetch(context.Background(), path); err != nil || code != want {
			t.Fatalf("GET %s: status %d, err %v; want %d", path, code, err, want)
		}
	}

	// A job.
	mustGet("/v1/ppa?circuit=FPU&scale=0.1", http.StatusOK)
	<-started
	// A /v1/compare fan-out: two jobs, one from the handler's goroutine.
	mustGet("/v1/compare?circuit=FPU&scale=0.1&seed=1", http.StatusOK)
	<-started
	<-started

	// A singleflight join: the second request for a held key waits on the
	// first one's job.
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i], _ = fetch(context.Background(), "/v1/ppa?circuit=AES&scale=0.1")
		}()
		if i == 0 {
			<-started
		}
	}
	waitFor(t, "singleflight join", func() bool {
		return s.metrics.CounterValue("tmi3d_singleflight_joins_total", "") == 1
	})

	// A 504: the request's deadline expires on a held job.
	mustGet("/v1/ppa?circuit=DES&scale=0.1&timeout_ms=20", http.StatusGatewayTimeout)
	<-started
	// A 499: the client goes away while its request waits on the held DES
	// job (a join, so no new job starts).
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan struct{})
	go func() {
		defer close(cancelled)
		fetch(ctx, "/v1/ppa?circuit=DES&scale=0.1")
	}()
	waitFor(t, "the 499 request to join", func() bool {
		return s.metrics.CounterValue("tmi3d_singleflight_joins_total", "") == 2
	})
	cancel()
	<-cancelled
	waitFor(t, "the 499 to be answered", func() bool {
		return s.metrics.CounterValue("tmi3d_requests_total", `endpoint="ppa",code="499"`) == 1
	})

	close(release)
	wg.Wait()
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Fatalf("singleflight pair answered %v, want two 200s", codes)
	}

	shutdown := make(chan error, 1)
	go func() { shutdown <- s.Shutdown(context.Background()) }()
	select {
	case err := <-shutdown:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return: a worker never exited")
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	tr.CloseIdleConnections()

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines after shutdown, %d before NewServer:\n%s",
				runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
