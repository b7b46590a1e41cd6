package runcache

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestKeyDeterministic(t *testing.T) {
	type cfg struct {
		Clients int
		Proto   string
	}
	k1, err := Key("result/v1", cfg{Clients: 39, Proto: "reno"})
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	k2, err := Key("result/v1", cfg{Clients: 39, Proto: "reno"})
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	if k1 != k2 {
		t.Errorf("same input hashed differently: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Errorf("key %q is not a sha256 hex digest", k1)
	}

	k3, _ := Key("result/v1", cfg{Clients: 40, Proto: "reno"})
	if k1 == k3 {
		t.Error("different configs share a key")
	}
}

func TestKeyKindNamespacing(t *testing.T) {
	v := map[string]int{"n": 1}
	a, _ := Key("result/v1", v)
	b, _ := Key("chain/v1", v)
	if a == b {
		t.Error("kinds must namespace keys: result/v1 == chain/v1")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	key, _ := Key("test/v1", "hello")
	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("Get on empty store = ok=%v err=%v, want miss", ok, err)
	}

	want := []byte(`{"x": 1}`)
	if err := s.Put(key, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put = ok=%v err=%v", ok, err)
	}
	if string(got) != string(want) {
		t.Errorf("Get = %q, want %q", got, want)
	}

	// Overwrite is allowed and atomic.
	if err := s.Put(key, []byte("v2")); err != nil {
		t.Fatalf("Put overwrite: %v", err)
	}
	got, _, _ = s.Get(key)
	if string(got) != "v2" {
		t.Errorf("after overwrite Get = %q, want v2", got)
	}
}

func TestStoreLen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if n, err := s.Len(); err != nil || n != 0 {
		t.Fatalf("empty store Len = %d, %v", n, err)
	}
	for i, name := range []string{"a", "b", "c"} {
		key, _ := Key("test/v1", name)
		if err := s.Put(key, []byte{byte(i)}); err != nil {
			t.Fatalf("Put %s: %v", name, err)
		}
	}
	if n, err := s.Len(); err != nil || n != 3 {
		t.Errorf("Len = %d, %v, want 3", n, err)
	}
	// Entries live under two-hex-digit shard directories.
	shards, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			t.Errorf("unexpected entry %q in cache root", sh.Name())
		}
	}
}

func TestOpenDefaultsAndCreates(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "cache")
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open should create missing directories: %v", err)
	}
	key, _ := Key("test/v1", 42)
	if err := s.Put(key, []byte("x")); err != nil {
		t.Fatalf("Put in fresh dir: %v", err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Errorf("cache dir not created: %v", err)
	}
}

// TestGetReportsCorruptEntries damages a stored entry the ways a disk or
// an interrupted copy can; each must read as ErrCorrupt, never as a result.
func TestGetReportsCorruptEntries(t *testing.T) {
	for _, c := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"flipped byte", func(b []byte) []byte { b[len(b)-2] ^= 0x01; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }},
		{"no digest", func(b []byte) []byte { return b[headerLen:] }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			key, _ := Key("test/v1", c.name)
			if err := s.Put(key, []byte(`{"clients": 39, "goodput": 0.93}`)); err != nil {
				t.Fatalf("Put: %v", err)
			}
			raw, err := os.ReadFile(s.path(key))
			if err != nil {
				t.Fatalf("read entry: %v", err)
			}
			if err := os.WriteFile(s.path(key), c.damage(raw), 0o644); err != nil {
				t.Fatalf("write entry: %v", err)
			}
			got, ok, err := s.Get(key)
			if !errors.Is(err, ErrCorrupt) || ok || got != nil {
				t.Fatalf("Get = %q, %v, %v; want nil, false, ErrCorrupt", got, ok, err)
			}
			if !strings.Contains(err.Error(), key) {
				t.Errorf("error %q does not name the key", err)
			}
		})
	}
}
