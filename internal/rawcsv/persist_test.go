package rawcsv

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestGenerationTracksContent(t *testing.T) {
	path := writeFile(t, sample)
	r, err := Open(desc(t, path, nil))
	if err != nil {
		t.Fatal(err)
	}
	g1 := r.Generation()
	if g1 == "" {
		t.Fatal("empty generation")
	}
	// Identical bytes at a different path/mtime share the generation —
	// this is what lets a regenerated demo dataset rehydrate.
	path2 := writeFile(t, sample)
	r2, err := Open(desc(t, path2, nil))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Generation() != g1 {
		t.Fatalf("same content, different generations: %q vs %q", g1, r2.Generation())
	}
	// Changed bytes change the generation.
	if err := os.WriteFile(path, []byte(sample+"4,zed,1.0,false\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	next, _, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if r.Generation() != g1 || next.Generation() == g1 {
		t.Fatalf("after a content change: generation %q, successor %q, was %q", r.Generation(), next.Generation(), g1)
	}
}

func TestSaveLoadAuxRoundTrip(t *testing.T) {
	path := writeFile(t, sample)
	r, err := Open(desc(t, path, nil))
	if err != nil {
		t.Fatal(err)
	}
	// Build the positional map for two columns via a scan.
	collect(t, r, []string{"id", "score"})
	if !r.PosMap().HasRows() {
		t.Fatal("scan did not build the posmap")
	}
	aux := filepath.Join(t.TempDir(), "t.posmap")
	if err := r.SaveAux(aux); err != nil {
		t.Fatal(err)
	}

	// A fresh reader (restarted process) loads it back and serves the
	// scan via posmap jumps, no rebuild.
	r2, err := Open(desc(t, path, nil))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := r2.LoadAux(aux)
	if err != nil || !ok {
		t.Fatalf("LoadAux = %v, %v", ok, err)
	}
	if got, want := r2.PosMap().NumRows(), r.PosMap().NumRows(); got != want {
		t.Fatalf("rows = %d, want %d", got, want)
	}
	rows := collect(t, r2, []string{"id", "score"})
	if len(rows) != 3 || rows[2].MustGet("score").Float() != 7.25 {
		t.Fatalf("rows = %v", rows)
	}
	if r2.StatsSnapshot()["posmap_scans"] != 1 || r2.StatsSnapshot()["full_scans"] != 0 {
		t.Fatalf("loaded posmap not used: %v", r2.StatsSnapshot())
	}
}

func TestLoadAuxRejectsStaleAndCorrupt(t *testing.T) {
	path := writeFile(t, sample)
	r, err := Open(desc(t, path, nil))
	if err != nil {
		t.Fatal(err)
	}
	collect(t, r, []string{"id"})
	aux := filepath.Join(t.TempDir(), "t.posmap")
	if err := r.SaveAux(aux); err != nil {
		t.Fatal(err)
	}

	// File rewritten after the sidecar: mtime/size mismatch → clean miss.
	if err := os.WriteFile(path, []byte(sample+"4,zed,1.0,false\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(desc(t, path, nil))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := r2.LoadAux(aux); ok || err != nil {
		t.Fatalf("stale sidecar: ok=%v err=%v (want clean miss)", ok, err)
	}
	if r2.PosMap().HasRows() {
		t.Fatal("stale sidecar installed rows")
	}

	// Corrupt sidecar bytes → error (callers log and rebuild), no panic.
	good, err := os.ReadFile(aux)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated":   func(b []byte) []byte { return b[:len(b)/2] },
		"bit flip":    func(b []byte) []byte { b = append([]byte(nil), b...); b[len(b)/2] ^= 0x10; return b },
		"bad magic":   func(b []byte) []byte { b = append([]byte(nil), b...); b[0] ^= 0xff; return b },
		"nearly zero": func(b []byte) []byte { return b[:5] },
	} {
		bad := filepath.Join(t.TempDir(), "bad.posmap")
		if err := os.WriteFile(bad, mutate(good), 0o644); err != nil {
			t.Fatal(err)
		}
		r3, err := Open(desc(t, path, nil))
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := r3.LoadAux(bad); ok || err == nil {
			t.Fatalf("%s: ok=%v err=%v (want rejection error)", name, ok, err)
		}
	}

	// Absent sidecar is a clean miss, not an error.
	if ok, err := r2.LoadAux(filepath.Join(t.TempDir(), "absent.posmap")); ok || err != nil {
		t.Fatalf("absent sidecar: ok=%v err=%v", ok, err)
	}
}
