package castore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// A Put is read back byte for byte, a re-Put overwrites, an absent key is a
// clean miss, and no temp file outlives its write.
func TestPutGetRoundTrip(t *testing.T) {
	s := openStore(t)
	for key, payload := range map[string][]byte{
		"k|text":   []byte("hello\nworld\n"),
		"k|empty":  {},
		"k|binary": bytes.Repeat([]byte{0, 0xff}, 4096),
	} {
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		got, ok, err := s.Get(key)
		if err != nil || !ok || !bytes.Equal(got, payload) {
			t.Fatalf("Get(%q) = %d bytes, %v, %v; want the %d bytes put", key, len(got), ok, err, len(payload))
		}
	}
	if err := s.Put("k|x", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k|x", []byte("second")); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := s.Get("k|x"); !ok || string(got) != "second" {
		t.Fatalf("after re-Put, Get = %q, %v; want second", got, ok)
	}
	if got, ok, err := s.Get("never put"); got != nil || ok || err != nil {
		t.Fatalf("Get(absent) = %q, %v, %v; want a clean miss", got, ok, err)
	}
	if n, err := s.Len(); err != nil || n != 4 {
		t.Fatalf("Len = %d (%v), want 4", n, err)
	}
	if q, err := s.QuarantineLen(); err != nil || q != 0 {
		t.Fatalf("QuarantineLen = %d (%v), want 0", q, err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(s.Dir(), "*", "tmp-*")); len(tmps) != 0 {
		t.Fatalf("leftover temp files: %v", tmps)
	}
}

// TestStoreHammer drives concurrent Get/Put over overlapping keys under the
// race detector. The atomicity invariant: a Get observes either a miss or
// the complete, checksum-valid payload of its key — never torn bytes, and
// never another key's payload.
func TestStoreHammer(t *testing.T) {
	s := openStore(t)
	var quarantined atomic.Int64
	s.OnQuarantine = func(string, error) { quarantined.Add(1) }

	const keys = 5
	payload := func(k int) []byte {
		// Distinct sizes per key make torn reads detectable.
		return bytes.Repeat([]byte{byte('a' + k)}, 512*(k+1))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				k := rng.Intn(keys)
				key := fmt.Sprintf("key-%d", k)
				if rng.Intn(2) == 0 {
					if err := s.Put(key, payload(k)); err != nil {
						t.Errorf("put %s: %v", key, err)
						return
					}
				} else {
					data, ok, err := s.Get(key)
					if err != nil {
						t.Errorf("get %s: %v", key, err)
						return
					}
					if ok && !bytes.Equal(data, payload(k)) {
						t.Errorf("get %s returned wrong payload (%d bytes)", key, len(data))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if q := quarantined.Load(); q != 0 {
		t.Fatalf("hammer quarantined %d entries; writes are not atomic", q)
	}
}

// A damaged entry — truncated, bit-flipped, or holding another key — is
// quarantined and reported as a miss, with OnQuarantine called once naming
// the entry's new home; the next Put restores service for the key.
func TestCorruptEntriesQuarantined(t *testing.T) {
	const key = "stage|opt|abc"
	payload := []byte(`{"design":{"name":"fpu"}}`)
	for _, c := range []struct {
		name    string
		corrupt func(t *testing.T, s *Store, path string)
		reason  string
	}{
		{"truncated", func(t *testing.T, s *Store, path string) {
			raw := readEntry(t, path)
			writeEntry(t, path, raw[:len(raw)-3])
		}, "truncated"},
		{"bit-flipped", func(t *testing.T, s *Store, path string) {
			raw := readEntry(t, path)
			raw[len(raw)-1] ^= 0x01
			writeEntry(t, path, raw)
		}, "checksum"},
		{"key-mismatched", func(t *testing.T, s *Store, path string) {
			// Another key's intact entry, copied under this key's path.
			if err := s.Put("stage|opt|other", payload); err != nil {
				t.Fatal(err)
			}
			writeEntry(t, path, readEntry(t, s.EntryPath("stage|opt|other")))
		}, "key mismatch"},
		{"headerless", func(t *testing.T, s *Store, path string) {
			writeEntry(t, path, []byte("no header line"))
		}, "header"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := openStore(t)
			var calls []string
			s.OnQuarantine = func(path string, reason error) {
				calls = append(calls, path)
				if !strings.Contains(reason.Error(), c.reason) {
					t.Errorf("quarantine reason %q, want it to mention %q", reason, c.reason)
				}
			}
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			path := s.EntryPath(key)
			c.corrupt(t, s, path)

			got, ok, err := s.Get(key)
			if got != nil || ok || err != nil {
				t.Fatalf("Get(corrupt) = %q, %v, %v; want a miss", got, ok, err)
			}
			if len(calls) != 1 {
				t.Fatalf("OnQuarantine called %d times, want once", len(calls))
			}
			if want := filepath.Join(s.Dir(), "quarantine", filepath.Base(path)); calls[0] != want {
				t.Errorf("OnQuarantine path %s, want %s", calls[0], want)
			}
			if _, err := os.Stat(calls[0]); err != nil {
				t.Errorf("quarantined entry not kept for post-mortem: %v", err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("corrupt entry still at its live path (%v)", err)
			}
			if q, err := s.QuarantineLen(); err != nil || q != 1 {
				t.Errorf("QuarantineLen = %d (%v), want 1", q, err)
			}
			// A second Get is a clean miss: nothing left to quarantine.
			if _, ok, _ := s.Get(key); ok || len(calls) != 1 {
				t.Errorf("second Get: ok %v, OnQuarantine calls %d; want a clean miss and no new call", ok, len(calls))
			}
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			if got, ok, _ := s.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Errorf("Get after re-Put = %q, %v; want the payload", got, ok)
			}
		})
	}
}

// TestStoreKeyMismatch simulates an entry copied to the wrong path (or a
// SHA-256 collision): the header's full key disagrees, so the copy
// quarantines while the key it belongs to stays served.
func TestStoreKeyMismatch(t *testing.T) {
	s := openStore(t)
	if err := s.Put("key-a", []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	pb := s.EntryPath("key-b")
	if err := os.MkdirAll(filepath.Dir(pb), 0o755); err != nil {
		t.Fatal(err)
	}
	writeEntry(t, pb, readEntry(t, s.EntryPath("key-a")))
	if _, ok, err := s.Get("key-b"); err != nil || ok {
		t.Fatalf("mismatched entry Get = ok=%v err=%v, want miss", ok, err)
	}
	if n, _ := s.QuarantineLen(); n != 1 {
		t.Fatalf("quarantine holds %d entries, want 1", n)
	}
	if got, ok, _ := s.Get("key-a"); !ok || string(got) != "payload-a" {
		t.Fatalf("key-a after the mismatch = %q, %v; want its payload", got, ok)
	}
}

func readEntry(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func writeEntry(t *testing.T, path string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
