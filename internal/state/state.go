// Package state is the durability layer of the near-real-time serving
// subsystem: a pluggable snapshot store plus the versioned, checksummed
// binary encoding of per-pixel monitor state.
//
// The serving model (DESIGN.md "Stateful near-real-time serving") is
// fit-once/monitor-forever: a scene's per-pixel monitor records are
// fitted once and then advanced one acquisition date at a time, each
// update O(K).
// That only works as a *service* if the fitted state survives restarts —
// refitting a continental scene because a pod rolled would forfeit the
// whole point. A Store holds one opaque snapshot blob per session; the
// codec in codec.go turns a SessionSnapshot — the form an nrt session
// keeps resident, one core.MonitorState record per pixel — into that
// blob and back with bit-exact float64 round-tripping, so records
// restored from a snapshot continue bit-identically to ones that never
// stopped (pinned by the nrt restart tests).
//
// Two backends ship: MemStore (tests, cacheless deployments) and
// FileStore (one file per session, atomic temp+rename writes). Object
// stores slot in behind the same four-method interface.
package state

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"bfast/internal/obs"
)

// ErrNotFound reports that the store holds no snapshot for the session.
var ErrNotFound = errors.New("state: snapshot not found")

// Store persists one opaque snapshot blob per session ID. Implementations
// must be safe for concurrent use; Save must be atomic (a concurrent
// Load sees either the previous snapshot or the new one, never a torn
// write). IDs are restricted to [a-z0-9-] (see CheckID) so file- and
// key-based backends need no escaping.
type Store interface {
	// Save durably replaces the session's snapshot.
	Save(ctx context.Context, id string, data []byte) error
	// Load returns the session's snapshot, or ErrNotFound.
	Load(ctx context.Context, id string) ([]byte, error)
	// Delete removes the session's snapshot; deleting a missing session
	// is not an error (the end state is identical).
	Delete(ctx context.Context, id string) error
	// List returns the stored session IDs in lexical order.
	List(ctx context.Context) ([]string, error)
}

// CheckID validates a session ID for use as a store key: non-empty,
// at most 64 characters, lowercase letters, digits and dashes only.
// The generator in internal/nrt only produces conforming IDs; the check
// exists so a store never trusts a wire-supplied ID as a file path.
func CheckID(id string) error {
	if id == "" || len(id) > 64 {
		return fmt.Errorf("state: session id must be 1-64 characters, got %d", len(id))
	}
	for _, c := range id {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return fmt.Errorf("state: session id %q contains %q; only [a-z0-9-] allowed", id, c)
		}
	}
	return nil
}

// --- in-memory backend ----------------------------------------------------

// MemStore is a process-local Store: snapshots survive as long as the
// process. It is the default backend when no state directory is
// configured — sessions still work, they just do not survive restarts.
type MemStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{m: make(map[string][]byte)} }

// Save implements Store.
func (s *MemStore) Save(_ context.Context, id string, data []byte) error {
	if err := CheckID(id); err != nil {
		return err
	}
	cp := append([]byte(nil), data...)
	s.mu.Lock()
	s.m[id] = cp
	s.mu.Unlock()
	return nil
}

// Load implements Store.
func (s *MemStore) Load(_ context.Context, id string) ([]byte, error) {
	if err := CheckID(id); err != nil {
		return nil, err
	}
	s.mu.RLock()
	data, ok := s.m[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return append([]byte(nil), data...), nil
}

// Delete implements Store.
func (s *MemStore) Delete(_ context.Context, id string) error {
	if err := CheckID(id); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.m, id)
	s.mu.Unlock()
	return nil
}

// List implements Store.
func (s *MemStore) List(_ context.Context) ([]string, error) {
	s.mu.RLock()
	ids := make([]string, 0, len(s.m))
	for id := range s.m {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Strings(ids)
	return ids, nil
}

// --- file backend ---------------------------------------------------------

// snapExt is the snapshot file suffix; List ignores everything else
// (editor droppings, in-flight temp files).
const snapExt = ".bfsnap"

// FileStore persists one <id>.bfsnap file per session under a directory.
// Writes go through a temp file + rename so a crash mid-write leaves the
// previous snapshot intact — the load path then resumes from the last
// complete snapshot, and the codec's checksum rejects any partial file
// that somehow survives.
type FileStore struct {
	dir     string
	metrics *obs.Registry

	saves      *obs.Counter
	saveBytes  *obs.Histogram
	loads      *obs.Counter
	loadMisses *obs.Counter
}

// NewFileStore opens (creating if needed) a snapshot directory.
// Metrics (state.file.*) land in reg (nil = the process default).
func NewFileStore(dir string, reg *obs.Registry) (*FileStore, error) {
	if dir == "" {
		return nil, errors.New("state: file store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("state: %w", err)
	}
	if reg == nil {
		reg = obs.Default()
	}
	return &FileStore{
		dir:        dir,
		metrics:    reg,
		saves:      reg.Counter("state.file.saves"),
		saveBytes:  reg.Histogram("state.file.save_bytes", nil),
		loads:      reg.Counter("state.file.loads"),
		loadMisses: reg.Counter("state.file.load_misses"),
	}, nil
}

// Dir returns the store's directory.
func (s *FileStore) Dir() string { return s.dir }

func (s *FileStore) path(id string) string { return filepath.Join(s.dir, id+snapExt) }

// Save implements Store: write-to-temp, fsync, rename.
func (s *FileStore) Save(ctx context.Context, id string, data []byte) error {
	if err := CheckID(id); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, id+".tmp-*")
	if err != nil {
		return fmt.Errorf("state: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("state: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("state: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(id)); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	s.saves.Inc()
	s.saveBytes.Observe(float64(len(data)))
	return nil
}

// Load implements Store.
func (s *FileStore) Load(ctx context.Context, id string) ([]byte, error) {
	if err := CheckID(id); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.path(id))
	if errors.Is(err, os.ErrNotExist) {
		s.loadMisses.Inc()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if err != nil {
		return nil, fmt.Errorf("state: %w", err)
	}
	s.loads.Inc()
	return data, nil
}

// Delete implements Store.
func (s *FileStore) Delete(ctx context.Context, id string) error {
	if err := CheckID(id); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	err := os.Remove(s.path(id))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("state: %w", err)
	}
	return nil
}

// List implements Store.
func (s *FileStore) List(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("state: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, snapExt) {
			continue
		}
		id := strings.TrimSuffix(name, snapExt)
		if CheckID(id) != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}
