package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tmi3d/internal/flow"
	"tmi3d/internal/serve"
)

// Flag values that leave nothing to do must be refused with a message, not
// reach the request loop: -workers 0 would block forever sending on the
// unbuffered work channel. The checks run before any connection is made.
func TestBadCountsExit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "loadgen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "0"}, "-workers must be at least 1"},
		{[]string{"-workers", "-3"}, "-workers must be at least 1"},
		{[]string{"-n", "0"}, "-n must be at least 1"},
		{[]string{"-cold", "2"}, "-cold must be in [0,1]"},
	} {
		// Nothing listens on the address: a run that got past the flag checks
		// would fail its requests rather than reach a daemon.
		args := append([]string{"-addr", "127.0.0.1:1", "-timeout", "1s"}, tc.args...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if _, ok := err.(*exec.ExitError); !ok {
			t.Errorf("loadgen %s: err = %v, want a non-zero exit", strings.Join(tc.args, " "), err)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("loadgen %s: output %q does not contain %q", strings.Join(tc.args, " "), out, tc.want)
		}
	}
}

// bodyCounter is a RoundTripper that counts response bodies handed out and
// not yet closed.
type bodyCounter struct {
	base http.RoundTripper
	open atomic.Int64
}

func (c *bodyCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	c.open.Add(1)
	resp.Body = &countedBody{ReadCloser: resp.Body, c: c}
	return resp, nil
}

type countedBody struct {
	io.ReadCloser
	once sync.Once
	c    *bodyCounter
}

func (b *countedBody) Close() error {
	b.once.Do(func() { b.c.open.Add(-1) })
	return b.ReadCloser.Close()
}

// TestLoadClosesEveryBody runs the request loop against a daemon stand-in
// that answers 200, 429 and 500. Every response body, whatever its status,
// must be closed, and every non-200 answer and every 200 body that differs
// from an earlier one for the same key must count as a failure.
func TestLoadClosesEveryBody(t *testing.T) {
	var hot atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seed, _ := strconv.Atoi(r.URL.Query().Get("seed"))
		switch {
		case seed == 0: // the hot key answers differently the second time
			fmt.Fprintf(w, "hot-%d", hot.Add(1))
		case seed <= 2:
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"error":"queue full; retry later"}`)
		case seed <= 4:
			w.WriteHeader(http.StatusInternalServerError)
			io.WriteString(w, `{"error":"boom"}`)
		default:
			fmt.Fprintf(w, "ok-%d", seed)
		}
	}))
	defer ts.Close()
	counter := &bodyCounter{base: http.DefaultTransport}
	client := &http.Client{Transport: counter}
	urlFor := func(cfg flow.Config) string {
		return ts.URL + "/v1/ppa?" + serve.ConfigQuery(cfg).Encode()
	}
	var cfgs []flow.Config
	for _, seed := range []uint64{0, 1, 2, 3, 4, 5, 6, 7, 0} {
		cfgs = append(cfgs, flow.Config{Circuit: "FPU", Scale: 0.1, Seed: seed})
	}

	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	samples, responses, failures := load(client, urlFor, cfgs, 3)

	if n := counter.open.Load(); n != 0 {
		t.Errorf("%d response bodies never closed", n)
	}
	// Two 429s, two 500s and the hot key's mismatched second body.
	if failures != 5 {
		t.Errorf("failures = %d, want 5", failures)
	}
	if len(samples) != 5 || len(responses) != 4 {
		t.Errorf("%d samples over %d keys, want 5 over 4", len(samples), len(responses))
	}
}

// TestVerifyCountsTamperedPayload runs -verify against a daemon stand-in
// that serves genuine flow.Run payloads, then the same with one key's payload
// tampered. A key whose every request failed is not compared, and not
// counted as checked.
func TestVerifyCountsTamperedPayload(t *testing.T) {
	cfgs := []flow.Config{
		{Circuit: "FPU", Scale: 0.02, Seed: 1},
		{Circuit: "FPU", Scale: 0.02, Seed: 2},
		{Circuit: "FPU", Scale: 0.02, Seed: 3}, // the stand-in fails every request
		{Circuit: "FPU", Scale: 0.02, Seed: 1},
	}
	payloads := map[string][]byte{}
	for _, cfg := range cfgs[:2] {
		r, err := flow.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if payloads[strconv.FormatUint(cfg.Seed, 10)], err = flow.EncodeResult(r); err != nil {
			t.Fatal(err)
		}
	}
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	for _, tc := range []struct {
		tampered string // seed whose payload is altered, or ""
		want     int
	}{{"", 0}, {"2", 1}} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			seed := r.URL.Query().Get("seed")
			body, ok := payloads[seed]
			if !ok {
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
			if seed == tc.tampered {
				body = bytes.Replace(body, []byte(`"circuit":"FPU"`), []byte(`"circuit":"fpu"`), 1)
			}
			w.Write(body)
		}))
		urlFor := func(cfg flow.Config) string {
			return ts.URL + "/v1/ppa?" + serve.ConfigQuery(cfg).Encode()
		}
		_, responses, failures := load(ts.Client(), urlFor, cfgs, 2)
		ts.Close()
		if failures != 1 {
			t.Errorf("tampered %q: load failures = %d, want 1 (the failing key)", tc.tampered, failures)
		}
		checked, failures := verifyDirect(responses, cfgs)
		if checked != 2 || failures != tc.want {
			t.Errorf("tampered %q: verify checked %d keys with %d failures, want 2 with %d", tc.tampered, checked, failures, tc.want)
		}
	}
}

// TestProbeCountsMissingSeries runs -check's probe against a stand-in whose
// /metrics carries all four series, then each set of three.
func TestProbeCountsMissingSeries(t *testing.T) {
	series := []string{"tmi3d_requests_total", "tmi3d_request_seconds_count", "tmi3d_cache_misses_total", "tmi3d_queue_depth"}
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	for drop := -1; drop < len(series); drop++ {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/metrics" {
				for i, s := range series {
					if i != drop {
						fmt.Fprintf(w, "%s 1\n", s)
					}
				}
			}
		}))
		want := 1
		if drop < 0 {
			want = 0
		}
		if got := probe(ts.Client(), strings.TrimPrefix(ts.URL, "http://")); got != want {
			t.Errorf("metrics without series %d: probe failures = %d, want %d", drop, got, want)
		}
		ts.Close()
	}
}
