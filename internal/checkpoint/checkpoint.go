// Package checkpoint is the crash-safety layer shared by all five sweep
// engines: completed rows, cells, or day-shards spill to disk as they
// finish, so a run killed mid-sweep resumes by loading finished units
// instead of recomputing them. Because every engine folds results in
// stable order regardless of Workers, a resumed run's output is
// byte-identical to an uninterrupted one — the determinism contract
// extends across process deaths.
//
// Layout: a checkpoint directory holds a manifest.json identifying the
// run (engine name + version, config hash, seed) plus one file per
// completed unit. Every write uses the same atomic stage-then-rename
// pattern as measure.snapshotter (write ".name.tmp", fsync, rename to
// "name"), so a unit either exists completely or not at all; a crash
// mid-write leaves only a "."-prefixed orphan that Open sweeps away.
// Resuming against a directory whose manifest disagrees on any key
// field fails with a *MismatchError. The config hash is derived by
// walking the whole config (HashConfig), so a field that shapes output
// cannot be left out of it; only a `checkpoint:"-"` tag excludes one.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Manifest identifies the run a checkpoint directory belongs to. A
// directory is only resumable by a run with the identical manifest.
type Manifest struct {
	// Engine names the producing engine, e.g. "censor.Sweep".
	Engine string `json:"engine"`
	// Version is the engine's checkpoint-format version; bump it when
	// the unit encoding or the unit keying changes so old state is
	// refused instead of misread. It is Workers-independent: width
	// never changes what a unit contains.
	Version int `json:"version"`
	// ConfigHash is HashConfig over the network and engine configs:
	// every field except those tagged `checkpoint:"-"` (Workers and
	// output directories).
	ConfigHash uint64 `json:"config_hash"`
	// Seed is the simulation seed.
	Seed uint64 `json:"seed"`
}

// MismatchError reports a resume attempt against checkpoint state
// written by a different run: a manifest field disagrees.
type MismatchError struct {
	Field string // "engine", "version", "config_hash", or "seed"
	Have  string // value found in the on-disk manifest
	Want  string // value the resuming run expects
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint: manifest %s mismatch: directory has %s, run expects %s (refusing to mix state from different runs)",
		e.Field, e.Have, e.Want)
}

// ErrCorrupt marks checkpoint state that exists but cannot be used: a
// manifest or unit that does not decode, or a row unit of the wrong
// length. Callers test for it with errors.Is.
var ErrCorrupt = errors.New("checkpoint: corrupt state")

const manifestName = "manifest.json"

// Store is an open checkpoint directory. Save and Load are safe for
// concurrent use by engine workers: units are independent files and the
// stage-then-rename commit is atomic.
type Store struct {
	dir string
}

// Open prepares dir for the run described by m: it creates the
// directory if needed, sweeps "."-prefixed staging orphans left by a
// crash mid-write, and creates or verifies the manifest. If a manifest
// already exists it must match m exactly; any disagreement returns a
// *MismatchError and no state is touched.
func Open(dir string, m Manifest) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if err := sweepOrphans(dir); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		if err := WriteFileAtomic(path, mustJSON(m)); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, fmt.Errorf("checkpoint: %w", err)
	default:
		var have Manifest
		if err := json.Unmarshal(raw, &have); err != nil {
			return nil, fmt.Errorf("%w: manifest %s: %w", ErrCorrupt, path, err)
		}
		if err := have.verify(m); err != nil {
			return nil, err
		}
	}
	return &Store{dir: dir}, nil
}

// Exists reports whether dir already holds a checkpoint manifest —
// CLIs use it to refuse clobbering prior state unless -resume is given.
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// verify compares the on-disk manifest against the resuming run's. The
// seed is checked before the config hash, which also covers it, so a
// seed change is reported as such.
func (have Manifest) verify(want Manifest) error {
	for _, f := range [...][3]string{
		{"engine", have.Engine, want.Engine},
		{"version", fmt.Sprint(have.Version), fmt.Sprint(want.Version)},
		{"seed", fmt.Sprint(have.Seed), fmt.Sprint(want.Seed)},
		{"config_hash", fmt.Sprintf("%016x", have.ConfigHash), fmt.Sprintf("%016x", want.ConfigHash)},
	} {
		if f[1] != f[2] {
			return &MismatchError{Field: f[0], Have: f[1], Want: f[2]}
		}
	}
	return nil
}

// sweepOrphans removes "."-prefixed staging files left by a crash
// between stage and rename. Committed units never start with ".", so
// this can never delete completed work.
func sweepOrphans(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") && strings.HasSuffix(e.Name(), ".tmp") {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("checkpoint: sweeping orphan %s: %w", e.Name(), err)
			}
		}
	}
	return nil
}

// Save commits one completed unit under key. The write is atomic:
// either the unit appears complete or (after a crash) only a staging
// orphan remains for the next Open to sweep.
func (s *Store) Save(key string, data []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	if err := WriteFileAtomic(filepath.Join(s.dir, key), data); err != nil {
		return err
	}
	st := ckptStats.Get()
	if st.rowsWritten != nil {
		st.rowsWritten.Inc()
		st.bytesSpilled.Add(uint64(len(data)))
	}
	return nil
}

// Load reads a previously committed unit. ok is false when the unit
// does not exist — the cell was never finished, so recompute it.
func (s *Store) Load(key string) (data []byte, ok bool, err error) {
	if err := validKey(key); err != nil {
		return nil, false, err
	}
	data, err = os.ReadFile(filepath.Join(s.dir, key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("checkpoint: %w", err)
	}
	st := ckptStats.Get()
	if st.rowsResumed != nil {
		st.rowsResumed.Inc()
	}
	return data, true, nil
}

// SaveJSON commits a unit encoded as JSON. JSON is the unit codec of
// choice for engine results: encoding/json round-trips float64 exactly
// and preserves the nil-vs-empty slice distinction, so a loaded unit is
// reflect.DeepEqual to the computed one.
func (s *Store) SaveJSON(key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding %s: %w", key, err)
	}
	return s.Save(key, data)
}

// LoadJSON loads a JSON-encoded unit into v; ok is false when absent.
func (s *Store) LoadJSON(key string, v any) (ok bool, err error) {
	data, ok, err := s.Load(key)
	if err != nil || !ok {
		return ok, err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("%w: unit %s: %w", ErrCorrupt, key, err)
	}
	return true, nil
}

// validKey rejects keys that would escape the directory or collide
// with the staging/manifest namespace.
func validKey(key string) error {
	if key == "" || key == manifestName ||
		strings.HasPrefix(key, ".") || strings.ContainsAny(key, "/\\") {
		return fmt.Errorf("checkpoint: invalid unit key %q", key)
	}
	return nil
}

// WriteFileAtomic commits data to path with the package's durability
// discipline: stage as ".name.tmp" in the destination directory, write,
// fsync, rename over path, then fsync the directory so the rename itself
// survives power loss. A crash at any point leaves either the old file,
// the new file, or a "."-prefixed staging orphan — never a torn write.
// It is the one atomic-write primitive every artifact writer in the repo
// (checkpoint units, manifests, campaign summaries) routes through.
func WriteFileAtomic(path string, data []byte) error {
	dir, name := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp := filepath.Join(dir, "."+name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making a just-committed rename durable.
// Without it a power loss can forget the rename while remembering the
// staged bytes — the "complete file in a directory that never heard of
// it" failure mode.
func SyncDir(dir string) error { return fsync(dir) }

// fsync opens path, file or directory, and syncs it.
func fsync(path string) error {
	f, err := os.Open(path)
	if err == nil {
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("checkpoint: syncing %s: %w", path, err)
	}
	return nil
}

// SyncTree fsyncs every regular file and directory under root, bottom
// up. It is the staging half of the directory-grain commit protocol:
// write a tree, SyncTree it, rename it into place, SyncDir the parent —
// after which the rename target is guaranteed to hold complete files
// even across power loss. Up to 8 file syncs run at once: a day
// snapshot holds one file per router and serial fsync would make
// durability O(peers) in disk round-trips.
func SyncTree(root string) error {
	var files, dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			dirs = append(dirs, path)
		} else if d.Type().IsRegular() {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("checkpoint: syncing tree %s: %w", root, err)
	}
	errs := make([]error, len(files))
	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	for i, path := range files {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			errs[i] = fsync(path)
		}()
	}
	wg.Wait()
	// Directories last, deepest first, so a directory's entries are
	// durable before the directory itself is.
	for i := len(dirs) - 1; i >= 0; i-- {
		errs = append(errs, fsync(dirs[i]))
	}
	return errors.Join(errs...)
}

func mustJSON(v any) []byte {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err) // Manifest is a fixed struct of scalars; cannot fail
	}
	return data
}
