// Package rawfile owns what "the file changed" means for every raw plugin
// (rawcsv, rawjson, rawarr, rawxls). A Generation is one version of a
// file; Next says what changed on disk — nothing, an append, anything
// else. Readers are built over one generation and never read their file
// again: the catalog calls Next once per generation it holds, and each
// format maps the Change onto its own index (ViDa §2.1: "updates to the
// underlying files result in dropping the auxiliary structures
// affected").
package rawfile

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"vida/internal/faultinject"
	"vida/internal/vec"
)

// Kind classifies what Next found on disk.
type Kind uint8

// The outcomes of Next. An append keeps the bytes in memory and reads the
// tail; anything else is Replaced: read whole, every index over it dropped.
const (
	Unchanged Kind = iota
	Appended
	Replaced
)

// Change is the result of Next, as a format maps it onto its index. An
// append reports TailBytes and, once a row-indexed format followed it, the
// appended rows [OldRows, NewRows). A replacement gives the Reason it is
// not an append.
type Change struct {
	Kind             Kind
	OldRows, NewRows int
	TailBytes        int64
	Reason           string
}

// Generation is one version of the file at a path: its bytes, the mtime of
// the handle they were read through, and the checksum behind Key. It never
// changes. An appending successor may share the bytes, longer: nothing is
// written below a generation's length, and its spare capacity goes to the
// first successor that claims it (extended); later ones copy.
type Generation struct {
	path     string
	data     []byte
	mtime    time.Time
	extended atomic.Bool
	crcMu    sync.Mutex
	crcOK    bool
	crc      uint32
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const verifyChunk = 1 << 20 // prefixEqual's buffer: a 24 MB prefix verifies in ~3 ms

// Load reads the file at path with the mtime of the handle it reads: a
// rename over path in between must not pair one file's mtime with
// another's bytes, which Next would take for unchanged for good. A known
// generation of path with the handle's exact size and mtime is returned
// instead of a read — the trust rule by which Next reports Unchanged — so
// every name registered over one file shares one copy of it.
func Load(path string, known ...*Generation) (*Generation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_ = faultinject.Hit(faultinject.FileLoad) // a pause point: see its doc
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if k := match(path, fi, known); k != nil {
		return k, nil
	}
	g := &Generation{path: path, data: make([]byte, fi.Size()), mtime: fi.ModTime()}
	if _, err := io.ReadFull(f, g.data); err != nil {
		return nil, err
	}
	return g, nil
}

// match returns the first known generation of path whose size and mtime
// are fi's, or nil.
func match(path string, fi os.FileInfo, known []*Generation) *Generation {
	for _, k := range known {
		if k.path == path && int64(len(k.data)) == fi.Size() && k.mtime.Equal(fi.ModTime()) {
			return k
		}
	}
	return nil
}

// Bytes returns the file content. Callers never write it.
func (g *Generation) Bytes() []byte { return g.data }

// Mtime returns the mtime of the handle the bytes were read through.
func (g *Generation) Mtime() time.Time { return g.mtime }

// Key returns a short hex key for the content. Identical bytes share a
// key regardless of path or mtime, which lets a regenerated-but-identical
// dataset rehydrate spilled cache blocks after a restart. The checksum is
// computed once per generation, and an appending Next extends its
// predecessor's over the tail instead of hashing the file again.
func (g *Generation) Key() string {
	g.crcMu.Lock()
	if !g.crcOK {
		g.crc, g.crcOK = crc32.Checksum(g.data, crcTable), true
	}
	crc := g.crc
	g.crcMu.Unlock()
	return fmt.Sprintf("%08x-%x", crc, len(g.data))
}

// Next re-checks the file and returns the generation that describes it:
// the receiver when its size and mtime are unchanged, else a successor. It
// never changes the receiver. The file is Appended when it is strictly
// longer and its first len(Bytes()) bytes equal the bytes in memory,
// compared in full — size and mtime cannot tell an append from a longer
// rewrite; the successor then reads only the tail, through the handle
// whose size and mtime it records. Anything else is Replaced.
//
// A known generation that matches the file by size and mtime (Load) is
// the successor instead of a read: Appended when its bytes extend the
// receiver's — decided in memory — and Replaced otherwise.
func (g *Generation) Next(known ...*Generation) (*Generation, Change, error) {
	f, err := os.Open(g.path)
	if err != nil {
		return nil, Change{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, Change{}, err
	}
	old, size := int64(len(g.data)), fi.Size()
	switch {
	case fi.ModTime().Equal(g.mtime) && size == old:
		return g, Change{}, nil
	case size <= old:
		return g.replaced("file did not grow", known)
	}
	if k := match(g.path, fi, known); k != nil {
		// k holds g's bytes below old when it extends into the storage g
		// shares, else when they compare equal.
		if n := len(g.data); n == 0 || &k.data[0] == &g.data[0] || bytes.Equal(k.data[:n], g.data) {
			return k, Change{Kind: Appended, TailBytes: size - old}, nil
		}
		return k, Change{Kind: Replaced, Reason: "prefix differs from the generation in memory"}, nil
	}
	if same, err := prefixEqual(f, g.data); err != nil {
		return nil, Change{}, err
	} else if !same {
		return g.replaced("prefix differs from the generation in memory", known)
	}
	// The first successor takes g's spare capacity, invisible to g, and
	// reads the tail into it when it fits; a later successor, or a tail
	// that does not fit, reallocates with bounded headroom.
	data := g.data
	if !g.extended.CompareAndSwap(false, true) {
		data = data[:old:old]
	}
	if int64(cap(data)) < size {
		data = make([]byte, old, size+int64(vec.Spare(int(size))))
		copy(data, g.data)
	}
	data = data[:size]
	if _, err := io.ReadFull(f, data[old:]); err == io.EOF || err == io.ErrUnexpectedEOF {
		return g.replaced("file shrank while its tail was read", known)
	} else if err != nil {
		return nil, Change{}, err
	}
	next := &Generation{path: g.path, data: data, mtime: fi.ModTime()}
	g.crcMu.Lock()
	if g.crcOK {
		next.crc, next.crcOK = crc32.Update(g.crc, crcTable, data[old:]), true
	}
	g.crcMu.Unlock()
	return next, Change{Kind: Appended, TailBytes: size - old}, nil
}

// replaced reads the file whole (Load, given the known generations), for
// the reason it is not an append.
func (g *Generation) replaced(reason string, known []*Generation) (*Generation, Change, error) {
	next, err := Load(g.path, known...)
	return next, Change{Kind: Replaced, Reason: reason}, err
}

// prefixEqual reports whether f starts with want, reading it through a
// fixed buffer. A file shorter than want is simply not equal.
func prefixEqual(f io.Reader, want []byte) (bool, error) {
	buf := make([]byte, min(verifyChunk, len(want)))
	for len(want) > 0 {
		n, err := io.ReadFull(f, buf[:min(len(buf), len(want))])
		if err == io.EOF || err == io.ErrUnexpectedEOF || !bytes.Equal(buf[:n], want[:n]) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		want = want[n:]
	}
	return true, nil
}
