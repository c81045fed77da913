// Package state is the durability layer of the near-real-time serving
// subsystem: a pluggable store of one base snapshot plus an append-only
// journal per session, the versioned, checksummed binary encoding of
// per-pixel monitor state (codec.go), and the journal frames that carry
// each persisted observe's inputs (journal.go).
//
// The serving model (DESIGN.md "Stateful NRT serving") is
// fit-once/monitor-forever: a scene's per-pixel monitor records are
// fitted once and then advanced one acquisition date at a time, each
// update O(K).
// That only works as a *service* if the fitted state survives restarts —
// refitting a continental scene because a pod rolled would forfeit the
// whole point. A Store holds one opaque base blob per session and, after
// it, a journal of frames. The codec turns a SessionSnapshot — the form
// an nrt session keeps resident, one core.MonitorState record per pixel
// — into the base blob and back with bit-exact float64 round-tripping;
// a frame holds only the values one or more observe dates added, so a
// date costs O(pixels) bytes rather than a whole snapshot. A restore
// decodes the base and replays the frames through the observe step, so
// records restored this way continue bit-identically to ones that never
// stopped (pinned by the nrt restart tests).
//
// Two backends ship: MemStore (tests, cacheless deployments) and
// FileStore (a base file and a journal file per session; atomic
// temp+rename base writes, fsynced appends). Object stores slot in
// behind the same interface.
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

// Store persists one opaque base snapshot blob and one append-only
// journal per session ID. Implementations must be safe for concurrent
// use; Save must be atomic (a concurrent Load sees either the previous
// snapshot or the new one, never a torn write). IDs are restricted to
// [a-z0-9-] (see CheckID) so file- and key-based backends need no
// escaping.
type Store interface {
	// Save durably replaces the session's base snapshot, then empties
	// its journal. A crash between the two leaves journal frames that
	// the new base already covers; readers skip them by date.
	Save(ctx context.Context, id string, data []byte) error
	// Load returns the session's base snapshot, or ErrNotFound.
	Load(ctx context.Context, id string) ([]byte, error)
	// Append durably appends one journal frame after the session's
	// base. A crash mid-append can leave a torn final frame, never a
	// damaged earlier one.
	Append(ctx context.Context, id string, frame []byte) error
	// Journal returns the session's journal: every frame appended since
	// the last Save, concatenated; empty when there is none.
	Journal(ctx context.Context, id string) ([]byte, error)
	// Delete removes the session's snapshot and journal; deleting a
	// missing session is not an error (the end state is identical).
	Delete(ctx context.Context, id string) error
	// List returns the IDs of the stored base snapshots in lexical
	// order.
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
	mu      sync.RWMutex
	m       map[string][]byte
	journal map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{m: make(map[string][]byte), journal: make(map[string][]byte)}
}

// Save implements Store.
func (s *MemStore) Save(_ context.Context, id string, data []byte) error {
	if err := CheckID(id); err != nil {
		return err
	}
	cp := append([]byte(nil), data...)
	s.mu.Lock()
	s.m[id] = cp
	delete(s.journal, id)
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

// Append implements Store. The frame is copied.
func (s *MemStore) Append(_ context.Context, id string, frame []byte) error {
	if err := CheckID(id); err != nil {
		return err
	}
	s.mu.Lock()
	s.journal[id] = append(s.journal[id], frame...)
	s.mu.Unlock()
	return nil
}

// Journal implements Store.
func (s *MemStore) Journal(_ context.Context, id string) ([]byte, error) {
	if err := CheckID(id); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]byte(nil), s.journal[id]...), nil
}

// Delete implements Store.
func (s *MemStore) Delete(_ context.Context, id string) error {
	if err := CheckID(id); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.m, id)
	delete(s.journal, id)
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

// snapExt is the base snapshot file suffix; List ignores everything else
// (journals, editor droppings, in-flight temp files). journalExt is the
// suffix of the journal beside it.
const (
	snapExt    = ".bfsnap"
	journalExt = ".bfjournal"
)

// FileStore persists one <id>.bfsnap base file per session under a
// directory, with its journal in <id>.bfjournal beside it. Base writes
// go through a temp file + rename so a crash mid-write leaves the
// previous snapshot intact — the load path then resumes from the last
// complete snapshot, and the codec's checksum rejects any partial file
// that somehow survives. Journal frames are appended and fsynced one at
// a time, so a crash can tear only the last one.
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

func (s *FileStore) journalPath(id string) string { return filepath.Join(s.dir, id+journalExt) }

// syncDir fsyncs the store directory, making a rename, a creation or a
// removal in it durable.
func (s *FileStore) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// Save implements Store: write-to-temp, fsync, rename, fsync the
// directory, then remove the journal the new base covers.
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
	if err := s.syncDir(); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	// The base is durable; the journal's frames are all behind its
	// cursor now. Should the removal be lost in a crash, a reader skips
	// them by date.
	if err := os.Remove(s.journalPath(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("state: %w", err)
	}
	s.saves.Inc()
	s.saveBytes.Observe(float64(len(data)))
	return nil
}

// Append implements Store: open for append, write, fsync, close — and
// fsync the directory when the append created the journal file.
func (s *FileStore) Append(ctx context.Context, id string, frame []byte) error {
	if err := CheckID(id); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	created := false
	f, err := os.OpenFile(s.journalPath(id), os.O_WRONLY|os.O_APPEND, 0)
	if errors.Is(err, os.ErrNotExist) {
		created = true
		f, err = os.OpenFile(s.journalPath(id), os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o600)
	}
	if err != nil {
		return fmt.Errorf("state: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return fmt.Errorf("state: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("state: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	if created {
		if err := s.syncDir(); err != nil {
			return fmt.Errorf("state: %w", err)
		}
	}
	return nil
}

// Journal implements Store.
func (s *FileStore) Journal(ctx context.Context, id string) ([]byte, error) {
	if err := CheckID(id); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.journalPath(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("state: %w", err)
	}
	return data, nil
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
	// The base goes first: once it is gone the session is no longer
	// listed, and a journal left by a crash here is never read. The
	// directory is synced once anything was removed, so a crash after
	// Delete returns cannot bring the base back.
	removed := false
	for _, p := range []string{s.path(id), s.journalPath(id)} {
		err := os.Remove(p)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("state: %w", err)
		}
		removed = removed || err == nil
	}
	if removed {
		if err := s.syncDir(); err != nil {
			return fmt.Errorf("state: %w", err)
		}
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
