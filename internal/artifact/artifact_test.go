package artifact

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/obs"
)

func mustStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestMemoryHit(t *testing.T) {
	s := mustStore(t, Options{})
	want := []byte("payload")
	computes := 0
	compute := func() ([]byte, error) { computes++; return want, nil }

	got, hit, err := s.GetOrCompute("k", compute)
	if err != nil || hit || !bytes.Equal(got, want) {
		t.Fatalf("cold: got %q hit=%v err=%v", got, hit, err)
	}
	got, hit, err = s.GetOrCompute("k", compute)
	if err != nil || !hit || !bytes.Equal(got, want) {
		t.Fatalf("warm: got %q hit=%v err=%v", got, hit, err)
	}
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s := mustStore(t, Options{})
	_, _, err := s.GetOrCompute("", func() ([]byte, error) { return nil, nil })
	if !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("err = %v, want ErrEmptyKey", err)
	}
}

func TestComputeErrorNotStored(t *testing.T) {
	s := mustStore(t, Options{Dir: t.TempDir()})
	boom := errors.New("boom")
	_, _, err := s.GetOrCompute("k", func() ([]byte, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	got, hit, err := s.GetOrCompute("k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(got) != "ok" {
		t.Fatalf("after failed compute: got %q hit=%v err=%v, want fresh miss", got, hit, err)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := []byte("disk payload")
	s1 := mustStore(t, Options{Dir: dir})
	if _, hit, err := s1.GetOrCompute("k", func() ([]byte, error) { return want, nil }); hit || err != nil {
		t.Fatalf("populate: hit=%v err=%v", hit, err)
	}

	// A second store over the same directory (fresh memory tier) must
	// serve the entry from disk without recomputing.
	s2 := mustStore(t, Options{Dir: dir})
	got, hit, err := s2.GetOrCompute("k", func() ([]byte, error) {
		return nil, errors.New("must not recompute")
	})
	if err != nil || !hit || !bytes.Equal(got, want) {
		t.Fatalf("disk hit: got %q hit=%v err=%v", got, hit, err)
	}
}

// TestDiskCorruptionFallsBackToRecompute is the robustness table: every
// way an on-disk entry can be damaged must degrade to a clean
// recompute — never a crash, an error, or partial data.
func TestDiskCorruptionFallsBackToRecompute(t *testing.T) {
	payload := []byte("the artifact payload bytes")
	cases := []struct {
		name    string
		corrupt func(path string) error
	}{
		{"truncated to zero", func(p string) error {
			return os.WriteFile(p, nil, 0o644)
		}},
		{"truncated mid header", func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, raw[:10], 0o644)
		}},
		{"truncated mid payload", func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, raw[:len(raw)-5], 0o644)
		}},
		{"payload bit flip", func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			raw[len(raw)-1] ^= 0x40
			return os.WriteFile(p, raw, 0o644)
		}},
		{"checksum bit flip", func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			raw[20] ^= 0x01
			return os.WriteFile(p, raw, 0o644)
		}},
		{"wrong magic", func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			copy(raw, "NOPE")
			return os.WriteFile(p, raw, 0o644)
		}},
		{"wrong version", func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			raw[4] ^= 0xff
			return os.WriteFile(p, raw, 0o644)
		}},
		{"declared length lies", func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			raw[8]++
			return os.WriteFile(p, raw, 0o644)
		}},
		{"trailing garbage appended", func(p string) error {
			f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				return err
			}
			_, werr := f.Write([]byte("junk"))
			return errors.Join(werr, f.Close())
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seed := mustStore(t, Options{Dir: dir})
			if _, _, err := seed.GetOrCompute("k", func() ([]byte, error) { return payload, nil }); err != nil {
				t.Fatalf("populate: %v", err)
			}
			if err := tc.corrupt(seed.entryFile("k")); err != nil {
				t.Fatalf("corrupt: %v", err)
			}

			s := mustStore(t, Options{Dir: dir})
			got, hit, err := s.GetOrCompute("k", func() ([]byte, error) { return payload, nil })
			if err != nil {
				t.Fatalf("GetOrCompute on corrupt entry: %v", err)
			}
			if hit {
				t.Fatalf("corrupt entry reported as hit")
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("recompute returned %q, want %q", got, payload)
			}
			// The rewritten entry must be valid again for the next reader.
			s3 := mustStore(t, Options{Dir: dir})
			got, hit, err = s3.GetOrCompute("k", func() ([]byte, error) {
				return nil, errors.New("must not recompute")
			})
			if err != nil || !hit || !bytes.Equal(got, payload) {
				t.Fatalf("after repair: got %q hit=%v err=%v", got, hit, err)
			}
		})
	}
}

func TestConcurrentReadersSingleflight(t *testing.T) {
	s := mustStore(t, Options{Dir: t.TempDir()})
	var computes sync.Map
	var count int
	var countMu sync.Mutex

	const readers = 16
	var wg sync.WaitGroup
	results := make([][]byte, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, _, err := s.GetOrCompute("shared", func() ([]byte, error) {
				countMu.Lock()
				count++
				countMu.Unlock()
				computes.Store(i, true)
				return []byte("shared payload"), nil
			})
			if err != nil {
				t.Errorf("reader %d: %v", i, err)
				return
			}
			results[i] = data
		}(i)
	}
	wg.Wait()
	if count != 1 {
		t.Fatalf("compute ran %d times across %d concurrent readers, want 1", count, readers)
	}
	for i, r := range results {
		if string(r) != "shared payload" {
			t.Fatalf("reader %d saw %q", i, r)
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != readers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, readers-1)
	}
}

// TestConcurrentReadersOfDamagedDisk hammers a disk entry that keeps
// being corrupted between reads; every reader must come back with the
// full payload.
func TestConcurrentReadersOfDamagedDisk(t *testing.T) {
	dir := t.TempDir()
	payload := []byte("stable payload")
	for round := 0; round < 4; round++ {
		seed := mustStore(t, Options{Dir: dir})
		if _, _, err := seed.GetOrCompute("k", func() ([]byte, error) { return payload, nil }); err != nil {
			t.Fatalf("populate: %v", err)
		}
		raw, err := os.ReadFile(seed.entryFile("k"))
		if err != nil {
			t.Fatalf("read entry: %v", err)
		}
		if err := os.WriteFile(seed.entryFile("k"), raw[:len(raw)/2], 0o644); err != nil {
			t.Fatalf("truncate: %v", err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			// Each goroutine gets its own store: separate memory tiers
			// force every one onto the damaged disk path.
			s := mustStore(t, Options{Dir: dir})
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, _, err := s.GetOrCompute("k", func() ([]byte, error) { return payload, nil })
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if !bytes.Equal(got, payload) {
					t.Errorf("reader saw partial data %q", got)
				}
			}()
		}
		wg.Wait()
	}
}

// TestValueIsDecodedOncePerStore drives the typed path: a miss returns
// the computed value itself, memory hits return that same value with
// the same content hash, and a fresh Store on the directory decodes the
// entry once and then shares what it decoded.
func TestValueIsDecodedOncePerStore(t *testing.T) {
	dir := t.TempDir()
	type artifact struct{ text string }
	decodes := 0
	encode := func(a *artifact) []byte { return []byte(a.text) }
	decode := func(b []byte) (*artifact, error) { decodes++; return &artifact{string(b)}, nil }
	mustNotRun := func() (*artifact, error) { return nil, errors.New("must not recompute") }

	s1 := mustStore(t, Options{Dir: dir})
	made := &artifact{"payload"}
	v, sum, hit, err := Value(s1, "k", func() (*artifact, error) { return made, nil }, encode, decode)
	if err != nil || hit || v != made {
		t.Fatalf("miss: value %p (computed %p) hit=%v err=%v", v, made, hit, err)
	}
	v, again, hit, err := Value(s1, "k", mustNotRun, encode, decode)
	if err != nil || !hit || v != made || again != sum {
		t.Fatalf("memory hit: value %p hit=%v err=%v, hashes equal %v", v, hit, err, again == sum)
	}
	if decodes != 0 || s1.Stats().Bytes != int64(len(made.text)) {
		t.Fatalf("%d decodes and %d resident bytes in the store that computed the value", decodes, s1.Stats().Bytes)
	}

	s2 := mustStore(t, Options{Dir: dir})
	first, fromDisk, hit, err := Value(s2, "k", mustNotRun, encode, decode)
	if err != nil || !hit || first.text != made.text || fromDisk != sum {
		t.Fatalf("disk hit: %+v hit=%v err=%v, hashes equal %v", first, hit, err, fromDisk == sum)
	}
	second, _, _, err := Value(s2, "k", mustNotRun, encode, decode)
	if err != nil || second != first || decodes != 1 {
		t.Fatalf("second lookup: value %p (first %p), %d decodes, err=%v", second, first, decodes, err)
	}
}

// TestUndecodableDiskEntryIsQuarantined: a disk entry whose frame is
// intact but whose payload the caller's decoder rejects is deleted,
// counted as a disk fault and replaced by the recomputed value.
func TestUndecodableDiskEntryIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	text := func(b []byte) (string, error) {
		if len(b) == 0 || b[0] != 'v' {
			return "", errors.New("foreign payload")
		}
		return string(b), nil
	}
	encode := func(s string) []byte { return []byte(s) }
	if _, _, err := mustStore(t, Options{Dir: dir}).GetOrCompute("k", func() ([]byte, error) { return []byte("other build"), nil }); err != nil {
		t.Fatal(err)
	}
	s := mustStore(t, Options{Dir: dir})
	got, _, hit, err := Value(s, "k", func() (string, error) { return "v1", nil }, encode, text)
	if err != nil || hit || got != "v1" {
		t.Fatalf("undecodable entry: got %q hit=%v err=%v, want a recomputed miss", got, hit, err)
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != 0 || st.DiskFaults != 1 {
		t.Fatalf("stats = %+v, want 1 miss, no hit, 1 disk fault", st)
	}
	got, _, hit, err = Value(mustStore(t, Options{Dir: dir}), "k", func() (string, error) { return "", errors.New("must not recompute") }, encode, text)
	if err != nil || !hit || got != "v1" {
		t.Fatalf("after the rewrite: got %q hit=%v err=%v", got, hit, err)
	}
}

func TestLRUEvictionUpdatesMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := mustStore(t, Options{MaxMemoryBytes: 100, Registry: reg})
	blob := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 40) }

	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := s.GetOrCompute(key, func() ([]byte, error) { return blob(i), nil }); err != nil {
			t.Fatalf("populate %s: %v", key, err)
		}
	}
	// 3 x 40 bytes against a 100-byte bound: k0 must have been evicted.
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 80 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries, 80 bytes", st)
	}
	if _, hit, _ := s.GetOrCompute("k0", func() ([]byte, error) { return blob(0), nil }); hit {
		t.Fatalf("evicted k0 still reported as memory hit (no disk tier configured)")
	}

	var exp bytes.Buffer
	if err := reg.WritePrometheus(&exp); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, want := range []string{
		obs.MetricArtifactEvictions.String() + " 2", // k0 evicted, then k1 evicted by k0's re-admit
		obs.MetricArtifactBytes.String() + " 80",
		obs.MetricArtifactMisses.String() + " 4",
	} {
		if !bytes.Contains(exp.Bytes(), []byte(want)) {
			t.Errorf("exposition missing %q:\n%s", want, exp.String())
		}
	}
}

func TestOversizeEntryBypassesMemory(t *testing.T) {
	s := mustStore(t, Options{MaxMemoryBytes: 10})
	big := bytes.Repeat([]byte{1}, 64)
	if _, _, err := s.GetOrCompute("big", func() ([]byte, error) { return big, nil }); err != nil {
		t.Fatalf("populate: %v", err)
	}
	st := s.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Evictions != 0 {
		t.Fatalf("oversize entry admitted: %+v", st)
	}
}

func TestKeyCompositionIsBoundaryProof(t *testing.T) {
	if Key([]byte("ab"), []byte("c")) == Key([]byte("a"), []byte("bc")) {
		t.Fatal("Key must length-prefix parts so boundaries cannot alias")
	}
	if Key([]byte("ab")) == Key([]byte("ab"), nil) {
		t.Fatal("Key must distinguish a trailing empty part")
	}
}

func TestEntryFileStaysInsideDir(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(t, Options{Dir: dir})
	p := s.entryFile("../../escape")
	if filepath.Dir(p) != dir {
		t.Fatalf("entryFile escaped the cache dir: %s", p)
	}
}
