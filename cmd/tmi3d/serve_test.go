package main

import (
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"syscall"
	"testing"
	"time"

	"tmi3d/internal/serve"
)

// A signal makes serveUntilSignal drain the daemon and return: the listener
// closes and the serving goroutine exits.
func TestServeUntilSignalDrains(t *testing.T) {
	s, err := serve.NewServer(serve.Config{StoreDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- serveUntilSignal(s, l, sigs, 5*time.Second) }()

	client := &http.Client{Transport: &http.Transport{}}
	resp, err := client.Get("http://" + l.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	client.CloseIdleConnections()

	sigs <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveUntilSignal: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveUntilSignal did not return after SIGTERM")
	}
	if conn, err := net.Dial("tcp", l.Addr().String()); err == nil {
		conn.Close()
		t.Fatal("listener still accepting after the drain")
	}
}
