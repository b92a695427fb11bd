package store_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/faults"
	"repro/internal/sched/store"
	"repro/internal/testutil"
)

func openDisk(t *testing.T, opts store.DiskOptions) *store.Disk {
	t.Helper()
	d, err := store.OpenDiskOptions(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDiskFaultsFallThrough pins the disk tier's failure contract: a
// fault costs one miss or one dropped write, is counted in Stats, never
// reaches the caller, and does not outlive itself. Each case Puts a key
// (faulted when the rule is at the write site), Gets it back as a miss,
// and then checks that the next Put and Get round-trip cleanly.
func TestDiskFaultsFallThrough(t *testing.T) {
	testutil.LeakCheck(t)
	cases := []struct {
		name string
		rule faults.Rule
		// absent skips the first Put, so the Get is a plain not-exist
		// miss.
		absent bool
		want   store.Stats
	}{
		{
			name: "write-error",
			rule: faults.Rule{Site: faults.DiskWrite, Nth: 1, Err: errors.New("injected write io")},
			want: store.Stats{WriteErrors: 1},
		},
		{
			// ENOSPC gets no special treatment: one attempt, counted.
			name: "write-enospc",
			rule: faults.Rule{Site: faults.DiskWrite, Nth: 1, Err: syscall.ENOSPC},
			want: store.Stats{WriteErrors: 1},
		},
		{
			name: "read-error",
			rule: faults.Rule{Site: faults.DiskRead, Nth: 1, Err: errors.New("injected read io")},
			want: store.Stats{ReadErrors: 1, Entries: 1},
		},
		{
			name:   "not-exist",
			absent: true,
			want:   store.Stats{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := openDisk(t, store.DiskOptions{})
			faults.Enable(faults.NewPlan(tc.rule))
			t.Cleanup(faults.Disable)

			if !tc.absent {
				d.Put("k", metrics(1))
			}
			if _, ok := d.Get("k"); ok {
				t.Fatal("Get hit despite the fault")
			}
			st := d.Stats()
			st.Bytes = 0
			if st != tc.want {
				t.Errorf("stats after the fault = %+v, want %+v", st, tc.want)
			}

			d.Put("k", metrics(1))
			if got, ok := d.Get("k"); !ok || got != metrics(1) {
				t.Errorf("next Put/Get did not round-trip: %v %v", got, ok)
			}
			if st := d.Stats(); st.WriteErrors != tc.want.WriteErrors || st.ReadErrors != tc.want.ReadErrors {
				t.Errorf("clean round trip moved the error counters: %+v", st)
			}
		})
	}
}

// TestCorruptWriteIsRejected: a torn write "succeeds", the read side
// rejects it as untrusted content (not an I/O error), and a rewrite
// heals the key.
func TestCorruptWriteIsRejected(t *testing.T) {
	d := openDisk(t, store.DiskOptions{})
	faults.Enable(faults.NewPlan(faults.Rule{
		Site: faults.DiskWrite, Nth: 1, Corrupt: true}))
	t.Cleanup(faults.Disable)

	d.Put("k", metrics(1))
	if _, ok := d.Get("k"); ok {
		t.Fatal("torn entry passed verification")
	}
	st := d.Stats()
	if st.Rejected != 1 || st.WriteErrors != 0 || st.ReadErrors != 0 {
		t.Errorf("torn write counted wrong: %+v, want 1 rejection and no errors", st)
	}
	d.Put("k", metrics(1))
	if got, ok := d.Get("k"); !ok || got != metrics(1) {
		t.Errorf("rewrite did not heal the torn entry: %v %v", got, ok)
	}
}

// TestOpenDiskFaultSite: the open path is injectable too — a fault at
// store.disk.open surfaces as the constructor's error.
func TestOpenDiskFaultSite(t *testing.T) {
	boom := errors.New("injected open failure")
	faults.Enable(faults.NewPlan(faults.Rule{Site: faults.DiskOpen, Nth: 1, Err: boom}))
	t.Cleanup(faults.Disable)
	if _, err := store.OpenDisk(t.TempDir()); !errors.Is(err, boom) {
		t.Fatalf("OpenDisk returned %v, want the injected error", err)
	}
}

// TestClearRefusesForeignDirectory: Clear must not wipe a directory
// that is not shaped like a store — a misspelled -cache-dir pointing at
// real data stays intact.
func TestClearRefusesForeignDirectory(t *testing.T) {
	dir := t.TempDir()
	precious := filepath.Join(dir, "thesis-draft.txt")
	if err := os.WriteFile(precious, []byte("irreplaceable"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	err = d.Clear()
	if err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("Clear on a foreign directory returned %v, want a refusal", err)
	}
	if _, err := os.Stat(precious); err != nil {
		t.Fatalf("Clear damaged foreign data: %v", err)
	}

	// Foreign content one level down — inside a valid-looking shard —
	// is caught too.
	dir2 := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir2, "ab"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, "ab", "notes.md"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := store.CheckStoreShape(dir2); err == nil {
		t.Fatal("shard with foreign file passed the shape check")
	}
}

// TestClearAcceptsStoreShaped: empty, absent, and genuinely store-shaped
// directories clear cleanly.
func TestClearAcceptsStoreShaped(t *testing.T) {
	if err := store.CheckStoreShape(filepath.Join(t.TempDir(), "never-created")); err != nil {
		t.Errorf("absent dir failed the shape check: %v", err)
	}
	d := openDisk(t, store.DiskOptions{})
	if err := d.Clear(); err != nil {
		t.Fatalf("empty store refused to clear: %v", err)
	}
	for i := 0; i < 4; i++ {
		d.Put(metrics(i).Loop, metrics(i))
	}
	if st := d.Stats(); st.Entries != 4 {
		t.Fatalf("setup wrote %d entries, want 4", st.Entries)
	}
	if err := d.Clear(); err != nil {
		t.Fatalf("store-shaped dir refused to clear: %v", err)
	}
	if st := d.Stats(); st.Entries != 0 {
		t.Errorf("%d entries survived Clear", st.Entries)
	}
	if _, err := os.ReadDir(d.Dir()); err != nil {
		t.Errorf("cleared store root vanished: %v", err)
	}
}

// TestDurableRoundTrip: the fsync path writes entries that read back
// verified, and leaves no temp files behind.
func TestDurableRoundTrip(t *testing.T) {
	d := openDisk(t, store.DiskOptions{Durable: true})
	d.Put("k", metrics(2))
	got, ok := d.Get("k")
	if !ok || got != metrics(2) {
		t.Fatalf("durable round trip drifted: %v %v", got, ok)
	}
	if st := d.Stats(); st.WriteErrors != 0 {
		t.Errorf("durable write counted %d errors", st.WriteErrors)
	}
	filepath.Walk(d.Dir(), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasPrefix(filepath.Base(path), ".tmp-") {
			t.Errorf("leftover temp file %s", path)
		}
		return nil
	})
}
