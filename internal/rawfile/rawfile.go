// Package rawfile owns what "the file changed" means for every raw plugin
// (rawcsv, rawjson, rawarr, rawxls). A Generation is one version of a
// file; Next says what changed on disk — nothing, an append, anything
// else — and each format maps that Change onto its own index (ViDa §2.1:
// "updates to the underlying files result in dropping the auxiliary
// structures affected").
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

// Kind classifies what Next, or a reader's Refresh, found on disk.
type Kind uint8

// The outcomes of Next. An append keeps the bytes in memory and reads the
// tail; anything else is Replaced: read whole, every index over it dropped.
const (
	Unchanged Kind = iota
	Appended
	Replaced
)

// Change is the result of Next and of a reader's Refresh. An append
// reports TailBytes, the appended rows [OldRows, NewRows) of a row-indexed
// format, and whether the successor Inherited its predecessor's spare
// capacity: only that one may write past the length the two share, so a
// format copies any index it shares with the predecessor unless Inherited.
// A replacement gives the Reason it is not an append.
type Change struct {
	Kind             Kind
	OldRows, NewRows int
	TailBytes        int64
	Inherited        bool
	Reason           string
}

// Reopen is the Refresh of a format that parses its file again on any
// change: cur while the file is unchanged (or cannot be read), else parse
// of the successor, the change reported as the replacement it is to an
// index rebuilt whole.
func Reopen[R any](cur R, g *Generation, parse func(*Generation) (R, error)) (R, Change, error) {
	next, ch, err := g.Next()
	if err != nil || ch.Kind == Unchanged {
		return cur, ch, err
	}
	if ch.Kind == Appended {
		ch = Change{Kind: Replaced, Reason: "the format rebuilds its index on any change"}
	}
	r, err := parse(next)
	return r, ch, err
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
// another's bytes, which Next would take for unchanged for good.
func Load(path string) (*Generation, error) {
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
	g := &Generation{path: path, data: make([]byte, fi.Size()), mtime: fi.ModTime()}
	if _, err := io.ReadFull(f, g.data); err != nil {
		return nil, err
	}
	return g, nil
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
func (g *Generation) Next() (*Generation, Change, error) {
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
		return g.replaced("file did not grow")
	}
	if same, err := prefixEqual(f, g.data); err != nil {
		return nil, Change{}, err
	} else if !same {
		return g.replaced("prefix differs from the generation in memory")
	}
	// The first successor takes g's spare capacity, invisible to g, and
	// reads the tail into it when it fits; a later successor, or a tail
	// that does not fit, reallocates with bounded headroom.
	data, inherited := g.data, g.extended.CompareAndSwap(false, true)
	if !inherited {
		data = data[:old:old]
	}
	if int64(cap(data)) < size {
		data = make([]byte, old, size+int64(vec.Spare(int(size))))
		copy(data, g.data)
	}
	data = data[:size]
	if _, err := io.ReadFull(f, data[old:]); err == io.EOF || err == io.ErrUnexpectedEOF {
		return g.replaced("file shrank while its tail was read")
	} else if err != nil {
		return nil, Change{}, err
	}
	next := &Generation{path: g.path, data: data, mtime: fi.ModTime()}
	g.crcMu.Lock()
	if g.crcOK {
		next.crc, next.crcOK = crc32.Update(g.crc, crcTable, data[old:]), true
	}
	g.crcMu.Unlock()
	return next, Change{Kind: Appended, TailBytes: size - old, Inherited: inherited}, nil
}

// replaced reads the file whole, for the reason it is not an append.
func (g *Generation) replaced(reason string) (*Generation, Change, error) {
	next, err := Load(g.path)
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
