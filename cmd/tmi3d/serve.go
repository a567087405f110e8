package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tmi3d/internal/serve"
)

// serveMain runs the PPA daemon: `tmi3d serve -addr :8080 -store ./store`.
// SIGINT/SIGTERM trigger a graceful drain — in-flight flows finish and land
// in the persistent store before the process exits.
func serveMain(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks an ephemeral port)")
	store := fs.String("store", "tmi3d-store", "persistent result store directory")
	workers := fs.Int("workers", 0, "concurrent flow executions (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission queue depth before 429 (0 = 64)")
	lru := fs.Int("lru", 0, "in-memory cache entries (0 = 256)")
	timeout := fs.Duration("timeout", 0, "per-request deadline (0 = 15m)")
	maxScale := fs.Float64("max-scale", 1.0, "largest circuit scale the daemon will compute")
	addrFile := fs.String("addrfile", "", "write the bound address to this file once listening (for scripts using port 0)")
	drain := fs.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight HTTP requests")
	fs.Parse(args)

	s, err := serve.NewServer(serve.Config{
		StoreDir:       *store,
		Workers:        *workers,
		QueueDepth:     *queue,
		LRUSize:        *lru,
		RequestTimeout: *timeout,
		MaxScale:       *maxScale,
		LogWriter:      os.Stderr,
	})
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(l.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("tmi3d serve: listening on %s (store %s)", l.Addr(), *store)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	if err := serveUntilSignal(s, l, sigs, *drain); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(os.Stderr, "tmi3d serve: stopped")
}

// serveUntilSignal serves on l until a signal arrives on sigs, then drains:
// in-flight HTTP requests get up to drain to finish, and every admitted job
// completes. It returns the listener's error if serving stops before a
// signal.
func serveUntilSignal(s *serve.Server, l net.Listener, sigs <-chan os.Signal, drain time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	select {
	case sig := <-sigs:
		log.Printf("tmi3d serve: %v; draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			log.Printf("tmi3d serve: shutdown: %v", err)
		}
		<-done
		return nil
	case err := <-done:
		return err
	}
}
