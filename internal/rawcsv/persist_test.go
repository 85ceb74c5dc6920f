package rawcsv

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"vida/internal/vec"
)

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

	// A checksummed sidecar of this very file whose row count its body
	// cannot hold (every row start is at least one varint byte) is refused
	// before the row index is allocated: a bogus count costs nothing like
	// the 8 bytes per file byte the index would take.
	bigPath := writeFile(t, sample+strings.Repeat("4,zed,1.5,false\n", 4096))
	big, err := Open(desc(t, bigPath, nil))
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(big.SizeBytes())
	body := binary.AppendVarint(nil, big.file.Mtime().UnixNano())
	body = binary.AppendUvarint(body, size)
	body = binary.AppendUvarint(body, size)
	body = binary.AppendUvarint(body, 0)
	raw := binary.LittleEndian.AppendUint16(append([]byte(nil), auxMagic...), auxVersion)
	raw = binary.LittleEndian.AppendUint32(append(raw, body...), crc32.Checksum(body, auxCRCTable))
	bogus := filepath.Join(t.TempDir(), "bogus.posmap")
	if err := os.WriteFile(bogus, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ok, err := big.LoadAux(bogus)
	runtime.ReadMemStats(&after)
	if ok || err == nil {
		t.Fatalf("bogus row count: ok=%v err=%v (want rejection error)", ok, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > size {
		t.Fatalf("bogus row count: LoadAux allocated %d bytes for a %d-byte file", alloc, size)
	}
	if big.PosMap().HasRows() {
		t.Fatal("bogus row count installed rows")
	}
}

// TestLoadAuxRejectsSpansOutsideTheirRow: a sidecar whose checksum holds
// but whose offsets do not fit the file — a span past its row, a span
// that ends before it starts, rows out of order, repeated or past the
// end — is rejected as malformed, and the reader rebuilds its map on
// demand; a scan never slices the file by a sidecar's word.
func TestLoadAuxRejectsSpansOutsideTheirRow(t *testing.T) {
	path := writeFile(t, sample)
	fields := []string{"id", "name", "score", "active"}
	for _, c := range []struct {
		name   string
		mutate func(s *Snapshot)
	}{
		{"last span ends past the file", func(s *Snapshot) { s.Ends[1][2] = 1 << 20 }},
		{"span ends past the next row", func(s *Snapshot) { s.Ends[3][0] = s.Ends[3][0] + 3 }},
		{"span ends before it starts", func(s *Snapshot) { s.Cols[2][1], s.Ends[2][1] = 5, 4 }},
		{"rows out of order", func(s *Snapshot) { s.Rows[1], s.Rows[2] = s.Rows[2], s.Rows[1] }},
		{"row at the end of the file", func(s *Snapshot) { s.Rows[2] = int64(len(sample)) }},
		{"duplicate row start", func(s *Snapshot) {
			// Row 1 becomes empty, so its spans fit; only the order fails.
			s.Rows[2] = s.Rows[1]
			for j := range s.Cols {
				s.Cols[j][1], s.Ends[j][1] = 0, 0
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, err := Open(desc(t, path, nil))
			if err != nil {
				t.Fatal(err)
			}
			collect(t, r, fields)
			snap := r.PosMap().Snapshot()
			c.mutate(&snap)
			bad := NewPosMap()
			bad.SetRows(snap.Rows)
			for j := range snap.Cols {
				bad.SetCol(j, snap.Cols[j], snap.Ends[j])
			}
			r.pm = bad
			aux := filepath.Join(t.TempDir(), "t.posmap")
			if err := r.SaveAux(aux); err != nil {
				t.Fatal(err)
			}
			r2, err := Open(desc(t, path, nil))
			if err != nil {
				t.Fatal(err)
			}
			if ok, err := r2.LoadAux(aux); ok || err == nil {
				t.Fatalf("LoadAux = %v, %v; want a malformed-sidecar error", ok, err)
			}
			if r2.PosMap().HasRows() {
				t.Fatal("a rejected sidecar installed rows")
			}
			if rows := collect(t, r2, fields); len(rows) != 3 || rows[2].MustGet("score").Float() != 7.25 {
				t.Fatalf("rows after a rejected sidecar = %v", rows)
			}
		})
	}
}

// FuzzLoadAux: a sidecar that loads never makes a scan panic. The fuzzer
// mutates the sidecar body — mtime, size, rows and spans — and the
// harness frames it with a valid header and checksum, since the checksum
// only guards against torn writes. Seeds are SaveAux output over a file
// with a blank line, a short row and no final newline.
func FuzzLoadAux(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(path, []byte(sample+"\n4,zed\n5,ann,1.5,true"), 0o644); err != nil {
		f.Fatal(err)
	}
	all := []string{"id", "name", "score", "active"}
	scans := [][]string{{"id"}, {"name", "active"}, {"score"}, all}
	for _, fields := range scans {
		r, err := Open(desc(f, path, nil))
		if err != nil {
			f.Fatal(err)
		}
		if err := r.IterateBatches(fields, 2, func(*vec.Batch) error { return nil }); err != nil {
			f.Fatal(err)
		}
		aux := filepath.Join(dir, "seed.posmap")
		if err := r.SaveAux(aux); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(aux)
		if err != nil {
			f.Fatal(err)
		}
		if ok, err := r.LoadAux(aux); !ok {
			f.Fatalf("a seed does not load: %v", err)
		}
		f.Add(raw[len(auxMagic)+2 : len(raw)-4])
	}
	aux := filepath.Join(dir, "fuzz.posmap")
	f.Fuzz(func(t *testing.T, body []byte) {
		raw := binary.LittleEndian.AppendUint16(append([]byte(nil), auxMagic...), auxVersion)
		raw = binary.LittleEndian.AppendUint32(append(raw, body...), crc32.Checksum(body, auxCRCTable))
		if err := os.WriteFile(aux, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(desc(t, path, nil))
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := r.LoadAux(aux); !ok {
			return
		}
		for _, fields := range scans {
			_ = r.IterateBatches(fields, 2, func(*vec.Batch) error { return nil })
			if scan, n, ok := r.OpenRange(fields); ok {
				_ = scan(0, n, 2, func(*vec.Batch) error { return nil })
			}
		}
	})
}
