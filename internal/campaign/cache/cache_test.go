package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

const key1 = "0123456789abcdef0123456789abcdef"

func backends(t *testing.T) map[string]Cache {
	t.Helper()
	dir, err := NewDir(filepath.Join(t.TempDir(), "cells"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Cache{"memory": NewMemory(), "dir": dir}
}

func TestGetPutRoundTrip(t *testing.T) {
	for name, c := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if _, ok, err := c.Get(key1); ok || err != nil {
				t.Fatalf("fresh cache: ok=%v err=%v", ok, err)
			}
			want := []byte(`{"cell":"x","trials":[[1]]}`)
			if err := c.Put(key1, want); err != nil {
				t.Fatal(err)
			}
			got, ok, err := c.Get(key1)
			if err != nil || !ok || !bytes.Equal(got, want) {
				t.Fatalf("Get = %q, %v, %v; want %q", got, ok, err, want)
			}
			// Overwrite is allowed and last-write-wins.
			want2 := []byte("rewritten")
			if err := c.Put(key1, want2); err != nil {
				t.Fatal(err)
			}
			if got, _, _ := c.Get(key1); !bytes.Equal(got, want2) {
				t.Fatalf("after overwrite Get = %q", got)
			}
		})
	}
}

func TestDirRejectsNonDigestKeys(t *testing.T) {
	c, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "short", "../../../../etc/passwd", strings.Repeat("z", 32), strings.Repeat("A", 32)} {
		if err := c.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted", key)
		}
		if _, _, err := c.Get(key); err == nil {
			t.Errorf("Get(%q) accepted", key)
		}
	}
}

func TestDirSurvivesReopen(t *testing.T) {
	root := filepath.Join(t.TempDir(), "cells")
	c1, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(key1, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	c2, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := c2.Get(key1)
	if err != nil || !ok || string(got) != "persisted" {
		t.Fatalf("reopened Get = %q, %v, %v", got, ok, err)
	}
}

func TestDirLeavesNoTempFiles(t *testing.T) {
	root := t.TempDir()
	c, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	var stray []string
	filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.Contains(info.Name(), ".tmp") {
			stray = append(stray, path)
		}
		return nil
	})
	if len(stray) != 0 {
		t.Errorf("temp files left behind: %v", stray)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	for name, c := range backends(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					key := fmt.Sprintf("%032x", g)
					want := []byte(fmt.Sprintf("entry-%d", g))
					for i := 0; i < 50; i++ {
						if err := c.Put(key, want); err != nil {
							t.Error(err)
							return
						}
						got, ok, err := c.Get(key)
						if err != nil || !ok || !bytes.Equal(got, want) {
							t.Errorf("goroutine %d: Get = %q, %v, %v", g, got, ok, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

func TestMemoryLenAndDirRoot(t *testing.T) {
	m := NewMemory()
	if m.Len() != 0 {
		t.Errorf("fresh memory cache Len = %d", m.Len())
	}
	key := strings.Repeat("ab", 32)
	if err := m.Put(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Errorf("Len after one Put = %d", m.Len())
	}
	root := filepath.Join(t.TempDir(), "cells")
	d, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if d.Root() != root {
		t.Errorf("Root() = %q, want %q", d.Root(), root)
	}
}

func TestDeleteRemovesEntries(t *testing.T) {
	for name, c := range backends(t) {
		t.Run(name, func(t *testing.T) {
			d, ok := c.(Deleter)
			if !ok {
				t.Fatalf("%s backend does not implement Deleter", name)
			}
			// Deleting a missing key is a no-op, not an error.
			if err := d.Delete(key1); err != nil {
				t.Fatalf("deleting absent key: %v", err)
			}
			if err := c.Put(key1, []byte("data")); err != nil {
				t.Fatal(err)
			}
			if err := d.Delete(key1); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := c.Get(key1); ok || err != nil {
				t.Fatalf("entry survived delete: ok=%v err=%v", ok, err)
			}
		})
	}
}

func TestDirDeleteAndTouchRejectBadKeys(t *testing.T) {
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Delete("../escape"); err == nil {
		t.Error("Delete accepted a non-digest key")
	}
	if err := dir.Touch("../escape"); err == nil {
		t.Error("Touch accepted a non-digest key")
	}
}

func TestDirTouchBumpsMtime(t *testing.T) {
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Touching a missing entry is a no-op (a concurrent eviction must not
	// turn a read hit into an error).
	if err := dir.Touch(key1); err != nil {
		t.Fatalf("touching absent key: %v", err)
	}
	if err := dir.Put(key1, []byte("data")); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir.Root(), key1[:2], key1)
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(p, old, old); err != nil {
		t.Fatal(err)
	}
	if err := dir.Touch(key1); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if !st.ModTime().After(old.Add(30 * time.Minute)) {
		t.Errorf("mtime not bumped: %v", st.ModTime())
	}
}

func TestInstrumentForwardsDelete(t *testing.T) {
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wrapped := Instrument("delete-test", dir)
	deletes0 := mDeletes.With("delete-test").Value() // process-global: compare the delta
	d, ok := wrapped.(Deleter)
	if !ok {
		t.Fatal("instrumented cache lost the Deleter capability")
	}
	if err := wrapped.Put(key1, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(key1); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := dir.Get(key1); ok {
		t.Error("delete did not reach the wrapped backend")
	}
	if got := mDeletes.With("delete-test").Value() - deletes0; got != 1 {
		t.Errorf("campaign_cache_deletes_total = %d, want 1", got)
	}
	// A Deleter-less backend stays delete-less but does not error.
	plain := Instrument("delete-test-mem", deleteless{NewMemory()})
	if err := plain.(Deleter).Delete(key1); err != nil {
		t.Fatal(err)
	}
}

// deleteless hides Memory's Delete to model a backend without one.
type deleteless struct{ inner *Memory }

func (d deleteless) Get(key string) ([]byte, bool, error) { return d.inner.Get(key) }
func (d deleteless) Put(key string, data []byte) error    { return d.inner.Put(key, data) }
