// Package runcache is a content-addressed on-disk result store: values are
// keyed by the SHA-256 of their canonical JSON encoding, so any two
// byte-identical configurations share one cache entry and any change to a
// configuration — or to the Go type it is encoded from — produces a fresh
// key. The experiment runner uses it to skip simulations whose defaulted
// config has already been run (see internal/runner and core.RunBatch).
//
// Entries are files sharded by key prefix under one directory (default
// ~/.cache/tcpburst), written atomically via rename, so a store can be
// shared by concurrent processes and survives crashes with at worst a
// missing entry. Each file is a "sha256:<hex>" header line followed by
// the payload; Get checks the payload against it, so a flipped bit or a
// truncated file reads as ErrCorrupt instead of as a result.
package runcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ErrCorrupt is wrapped by Get's error for an entry whose payload does not
// match its stored digest, or that carries no digest at all.
var ErrCorrupt = errors.New("corrupt entry")

// digestPrefix opens every entry's header line; the hex SHA-256 of the
// payload and a newline follow it.
const digestPrefix = "sha256:"

// headerLen is the length of an entry's header line.
const headerLen = len(digestPrefix) + 2*sha256.Size + 1

// header returns the header line of an entry whose payload is data.
func header(data []byte) []byte {
	sum := sha256.Sum256(data)
	h := append(make([]byte, 0, headerLen), digestPrefix...)
	h = hex.AppendEncode(h, sum[:])
	return append(h, '\n')
}

// Store is an on-disk cache rooted at one directory. The zero value is not
// usable; construct with Open. All methods are safe for concurrent use by
// multiple goroutines and processes.
type Store struct {
	dir string
}

// DefaultDir returns the per-user cache root, ~/.cache/tcpburst on Linux
// (following os.UserCacheDir), falling back to the system temp directory
// when no user cache location is defined.
func DefaultDir() string {
	if base, err := os.UserCacheDir(); err == nil && base != "" {
		return filepath.Join(base, "tcpburst")
	}
	return filepath.Join(os.TempDir(), "tcpburst-cache")
}

// Open creates (if needed) and returns the store rooted at dir; an empty
// dir selects DefaultDir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		dir = DefaultDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Key hashes a value into its cache address: SHA-256 over the value's JSON
// encoding, prefixed by a caller-chosen kind ("result/v1", "chain/v1", ...)
// so distinct result types can never collide even if their configs encode
// identically. encoding/json emits struct fields in declaration order and
// map keys sorted, so the encoding — and therefore the key — is stable for
// a given Go type.
func Key(kind string, v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("runcache: encode key: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(raw)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// path shards entries two hex digits deep to keep directory listings sane
// at production sweep volumes.
func (s *Store) path(key string) string {
	if len(key) < 2 {
		return filepath.Join(s.dir, "_", key+".json")
	}
	return filepath.Join(s.dir, key[:2], key[2:]+".json")
}

// Get returns the bytes Put stored for key and whether the entry exists.
// A missing entry is (nil, false, nil). An entry whose payload fails its
// digest check is (nil, false, err) with err wrapping ErrCorrupt; it and
// other read failures are reported so callers can choose to treat them as
// misses.
func (s *Store) Get(key string) ([]byte, bool, error) {
	raw, err := os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("runcache: get %s: %w", key, err)
	}
	data, err := payload(raw)
	if err != nil {
		return nil, false, fmt.Errorf("runcache: get %s: %w", key, err)
	}
	return data, true, nil
}

// payload checks an entry's header against the rest of its bytes and
// returns them.
func payload(raw []byte) ([]byte, error) {
	if len(raw) < headerLen || !bytes.HasPrefix(raw, []byte(digestPrefix)) {
		return nil, fmt.Errorf("%w: no digest header", ErrCorrupt)
	}
	data := raw[headerLen:]
	if !bytes.Equal(raw[:headerLen], header(data)) {
		return nil, fmt.Errorf("%w: payload does not match its digest", ErrCorrupt)
	}
	return data, nil
}

// Put stores data under key atomically, behind its digest header: the
// bytes land in a temp file in the destination shard and are renamed into
// place, so concurrent readers see either the old entry, the new one, or
// none — never a torn write.
func (s *Store) Put(key string, data []byte) error {
	dst := s.path(key)
	shard := filepath.Dir(dst)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("runcache: put %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(shard, ".tmp-*")
	if err != nil {
		return fmt.Errorf("runcache: put %s: %w", key, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(header(data), data...)); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("runcache: put %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("runcache: put %s: %w", key, err)
	}
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		// Keys are content addresses, so a concurrent writer that won the
		// rename race stored byte-identical data: an existing destination
		// means the put succeeded, whoever performed it.
		if _, statErr := os.Stat(dst); statErr == nil {
			return nil
		}
		return fmt.Errorf("runcache: put %s: %w", key, err)
	}
	return nil
}

// Len walks the store and counts entries — intended for tests and the
// -stats telemetry, not hot paths.
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("runcache: len: %w", err)
	}
	return n, nil
}
