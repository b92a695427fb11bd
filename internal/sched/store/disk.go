package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/faults"
	"repro/internal/sched"
)

// diskEntry is the on-disk format: the schema version and the full
// fingerprint are echoed in every entry so Get can prove an entry is
// the one it asked for. The fingerprint echo matters because file
// names are content-addressed hashes of the key — a hash collision or
// a file written by a different (buggy, future, truncated) writer must
// read as a miss, never as someone else's metrics.
type diskEntry struct {
	Schema  int           `json:"schema"`
	Key     string        `json:"key"`
	Metrics sched.Metrics `json:"metrics"`
}

// DiskOptions tune the persistent tier. The zero value writes without
// fsync.
type DiskOptions struct {
	// Durable fsyncs the temp file before the rename and the shard
	// directory after it, so a committed entry survives a crash or
	// power cut. Command-line -cache-dir runs enable it (see
	// harness.EnableDiskCache); tests hammering a temp dir may not.
	Durable bool
}

// Disk is the persistent metrics tier: one JSON file per fingerprint
// under a content-addressed directory (dir/ab/<sha256(key)>.json).
// Writes are atomic — encode to a temp file in the target directory,
// then rename — so concurrent stores sharing one directory (separate
// processes, or two Disk values in tests) never observe partial
// entries. Get never trusts an entry it cannot verify: read errors,
// malformed JSON, schema-version drift, and fingerprint mismatches all
// report a miss (counted in Stats.Rejected) and the caller recomputes.
//
// The tier's failure contract is fall-through: a read I/O error is a
// miss (counted in Stats.ReadErrors), and a failed write is dropped
// after one attempt (counted in Stats.WriteErrors). Neither reaches
// the caller, who can always recompute. Each error class is logged
// once; nothing is silently dropped.
//
// Disk stores metrics only. Raw scheduled graphs are deliberately not
// persisted: they are megabytes each, pointer-rich, and only
// validation paths want them — the in-memory raw tier covers those.
type Disk struct {
	dir  string
	opts DiskOptions

	logMu  sync.Mutex
	logged map[string]bool

	rejected, writeErrs, readErrs atomic.Uint64
}

// OpenDisk opens (creating if needed) the on-disk store rooted at dir,
// with default options (not durable — see DiskOptions.Durable).
func OpenDisk(dir string) (*Disk, error) {
	return OpenDiskOptions(dir, DiskOptions{})
}

// OpenDiskOptions opens the on-disk store rooted at dir with explicit
// options.
func OpenDiskOptions(dir string, opts DiskOptions) (*Disk, error) {
	if err := faults.Check(faults.DiskOpen); err != nil {
		return nil, fmt.Errorf("store: open disk tier: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open disk tier: %w", err)
	}
	return &Disk{dir: dir, opts: opts, logged: make(map[string]bool)}, nil
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// path maps a fingerprint to its content-addressed file. Keys are long
// and contain separator characters, so the file name is the hex SHA-256
// of the key, sharded by its first byte to keep directories small.
func (d *Disk) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(d.dir, name[:2], name+".json")
}

// Get reads and verifies the entry under key. Any entry that cannot be
// read, parsed, or proven to belong to (key, current schema) is a miss.
func (d *Disk) Get(key string) (sched.Metrics, bool) {
	data, err := os.ReadFile(d.path(key))
	if ferr := faults.Check(faults.DiskRead); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		// Not-exist is a plain miss; anything else (permission, I/O) is
		// a device failure — still a miss for the caller (the compute
		// path is always available), but counted and logged.
		if !errors.Is(err, fs.ErrNotExist) {
			d.readErrs.Add(1)
			d.logOnce("read", err)
		}
		return sched.Metrics{}, false
	}
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil ||
		e.Schema != sched.MetricsVersion || e.Key != key {
		d.rejected.Add(1)
		return sched.Metrics{}, false
	}
	return e.Metrics, true
}

// Put persists metrics under key with an atomic rename, in one
// attempt. A failure is recorded in Stats (and logged once per error
// class), never returned: the disk tier is an accelerator, and a
// missing entry merely costs a recompute next process.
func (d *Disk) Put(key string, m sched.Metrics) {
	if err := d.put(key, m); err != nil {
		d.writeErrs.Add(1)
		d.logOnce("write", err)
	}
}

func (d *Disk) put(key string, m sched.Metrics) error {
	path := d.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(diskEntry{
		Schema:  sched.MetricsVersion,
		Key:     key,
		Metrics: m,
	}, "", "  ")
	if err != nil {
		return err
	}
	// The injectable write site: rules here fail the write or mutilate
	// the payload — a torn write that
	// "succeeds" and must be rejected by read-side verification.
	data, err = faults.Mutate(faults.DiskWrite, append(data, '\n'))
	if err != nil {
		return err
	}
	// Temp file in the destination directory so the rename never
	// crosses a filesystem boundary (rename atomicity).
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if d.opts.Durable {
		// Crash durability: the data must be on stable storage before
		// the rename publishes it, else a power cut can commit a name
		// pointing at garbage — which read-side verification would
		// reject, but the entry (and its compute cost) would be lost.
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if d.opts.Durable {
		// The rename itself lives in the directory: fsync the shard dir
		// so the new name survives a crash too. Best-effort — the data
		// is already safe, and some filesystems refuse directory syncs.
		if dirf, err := os.Open(filepath.Dir(path)); err == nil {
			dirf.Sync()
			dirf.Close()
		}
	}
	return nil
}

// logOnce reports a disk failure to the process log exactly once per
// (operation, error class), so a store failing thousands of writes in
// a batch run surfaces the problem without flooding stderr.
func (d *Disk) logOnce(op string, err error) {
	class := op + "/" + errClass(err)
	d.logMu.Lock()
	defer d.logMu.Unlock()
	if d.logged[class] {
		return
	}
	d.logged[class] = true
	log.Printf("store: disk %s failed (%v); further %s errors of this class are counted in Stats, not logged", op, err, op)
}

// errClass buckets errors coarsely: by errno when there is one, by
// dynamic type otherwise.
func errClass(err error) string {
	var errno syscall.Errno
	if errors.As(err, &errno) {
		return errno.Error()
	}
	return fmt.Sprintf("%T", err)
}

// Clear wipes every entry, leaving an empty store rooted at the same
// directory. It refuses to delete a directory that does not look like a
// result store — a misspelled -cache-dir must not wipe whatever path it
// happens to name.
func (d *Disk) Clear() error {
	if err := CheckStoreShape(d.dir); err != nil {
		return fmt.Errorf("store: refusing to clear %s: %w", d.dir, err)
	}
	if err := os.RemoveAll(d.dir); err != nil {
		return err
	}
	return os.MkdirAll(d.dir, 0o755)
}

// shardName matches a two-hex-digit shard directory.
func shardName(name string) bool {
	if len(name) != 2 {
		return false
	}
	for i := 0; i < 2; i++ {
		c := name[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// entryName matches a content-addressed entry file (<sha256>.json) or
// an in-flight temp file.
func entryName(name string) bool {
	if strings.HasPrefix(name, ".tmp-") {
		return true
	}
	if !strings.HasSuffix(name, ".json") || len(name) != 64+len(".json") {
		return false
	}
	for i := 0; i < 64; i++ {
		c := name[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// CheckStoreShape verifies that dir is empty, absent, or shaped like a
// result store: only two-hex-char shard directories at the top level,
// holding only <sha256>.json entries (or .tmp-* files mid-write). Any
// foreign file or directory is an error naming the first offender.
func CheckStoreShape(dir string) error {
	top, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, ent := range top {
		if !ent.IsDir() || !shardName(ent.Name()) {
			return fmt.Errorf("unexpected %s (not an ab/<sha256>.json store layout)", ent.Name())
		}
		inner, err := os.ReadDir(filepath.Join(dir, ent.Name()))
		if err != nil {
			return err
		}
		for _, f := range inner {
			if f.IsDir() || !entryName(f.Name()) {
				return fmt.Errorf("unexpected %s (not an ab/<sha256>.json store layout)",
					filepath.Join(ent.Name(), f.Name()))
			}
		}
	}
	return nil
}

// Stats reports the counters plus the store's current footprint
// (entry files and their total bytes), computed by walking the
// directory — cheap at the scales a metrics tier reaches, and always
// true to what is actually on disk.
func (d *Disk) Stats() Stats {
	st := Stats{
		Rejected:    d.rejected.Load(),
		WriteErrors: d.writeErrs.Load(),
		ReadErrors:  d.readErrs.Load(),
	}
	filepath.WalkDir(d.dir, func(path string, ent fs.DirEntry, err error) error {
		if err != nil || ent.IsDir() || !strings.HasSuffix(ent.Name(), ".json") {
			return nil
		}
		if info, err := ent.Info(); err == nil {
			st.Entries++
			st.Bytes += info.Size()
		}
		return nil
	})
	return st
}
