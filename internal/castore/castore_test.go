package castore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
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

// A Put is read back byte for byte, a re-Put overwrites, and an absent key
// is a clean miss.
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
