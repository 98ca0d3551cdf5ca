package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FileStore persists named checksummed frames under a directory with
// configurable replication: each object is written to Replicas
// subdirectories (standing in for distinct machines' disks). Writes are
// atomic and durable (synced temp file, rename, synced directory); reads
// verify the frame checksum and fall back to the next replica on
// corruption or absence — the behaviour the paper's fault-tolerant
// memoization layer guarantees.
type FileStore struct {
	dir      string
	replicas int
}

// NewFileStore opens (creating if needed) a store rooted at dir with the
// given replication factor (minimum 1).
func NewFileStore(dir string, replicas int) (*FileStore, error) {
	if replicas < 1 {
		replicas = 1
	}
	for r := 0; r < replicas; r++ {
		if err := os.MkdirAll(replicaDir(dir, r), 0o755); err != nil {
			return nil, fmt.Errorf("persist: create store: %w", err)
		}
	}
	return &FileStore{dir: dir, replicas: replicas}, nil
}

func replicaDir(dir string, r int) string {
	return filepath.Join(dir, fmt.Sprintf("replica-%d", r))
}

// sanitize converts an object name into a safe file name.
func sanitize(name string) string {
	replacer := strings.NewReplacer("/", "_", "\\", "_", ":", "_", "..", "_")
	return replacer.Replace(name) + ".obj"
}

// Save encodes v and writes it to every replica atomically.
func (s *FileStore) Save(name string, v any) error {
	frame, err := Encode(v)
	if err != nil {
		return err
	}
	var firstErr error
	written := 0
	for r := 0; r < s.replicas; r++ {
		path := filepath.Join(replicaDir(s.dir, r), sanitize(name))
		if err := atomicWrite(path, frame); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		written++
	}
	if written == 0 {
		return fmt.Errorf("persist: save %q: %w", name, firstErr)
	}
	return nil
}

// atomicWrite replaces path's content with data so that a crash at any
// point leaves either the previous content or the new: the bytes go to a
// temp file beside path and reach the disk before the rename makes them
// visible, and the directory is synced after it so the rename itself
// survives. A failure removes the temp file and, short of the final
// directory sync, leaves path as it was.
func atomicWrite(path string, data []byte) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close() // a second Close after a failed one is harmless
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir flushes a directory's entries — a rename in it — to disk.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads an object, trying each replica until one passes checksum
// verification. It returns fs.ErrNotExist when no replica has the object
// and ErrCorrupt when every present replica is damaged.
func (s *FileStore) Load(name string, out any) error {
	var lastErr error
	found := false
	for r := 0; r < s.replicas; r++ {
		path := filepath.Join(replicaDir(s.dir, r), sanitize(name))
		frame, err := os.ReadFile(path)
		if err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				lastErr = err
			}
			continue
		}
		found = true
		if err := Decode(frame, out); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	if !found {
		if lastErr != nil {
			return lastErr
		}
		return fmt.Errorf("persist: load %q: %w", name, fs.ErrNotExist)
	}
	return fmt.Errorf("persist: load %q: %w", name, lastErr)
}

// Delete removes an object from every replica.
func (s *FileStore) Delete(name string) error {
	var firstErr error
	for r := 0; r < s.replicas; r++ {
		path := filepath.Join(replicaDir(s.dir, r), sanitize(name))
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// List returns the names present on at least one replica, sorted.
func (s *FileStore) List() ([]string, error) {
	seen := map[string]bool{}
	for r := 0; r < s.replicas; r++ {
		entries, err := os.ReadDir(replicaDir(s.dir, r))
		if err != nil {
			continue
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".obj") {
				seen[strings.TrimSuffix(e.Name(), ".obj")] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// CorruptReplica deliberately damages one replica's copy of an object
// (fault-injection support for tests).
func (s *FileStore) CorruptReplica(name string, replica int) error {
	path := filepath.Join(replicaDir(s.dir, replica), sanitize(name))
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) > 20 {
		data[20] ^= 0xff
	}
	return os.WriteFile(path, data, 0o644)
}

// DropReplica removes one replica's copy of an object (fault injection).
func (s *FileStore) DropReplica(name string, replica int) error {
	return os.Remove(filepath.Join(replicaDir(s.dir, replica), sanitize(name)))
}
