// Engine snapshots: the fully preprocessed state — data graph plus the
// indexed vertical-partition store — serialized to one versioned binary
// file, so a daemon restart skips triple parsing, name interning from text,
// pair sorting and index construction entirely and instead streams flat
// int32 columns straight into the arena slices.
//
// File layout:
//
//	[8]byte magic "GQBESNAP"
//	u32     format version (currently 2)
//	graph section   (internal/graph.AppendSnapshot)
//	store section   (internal/storage.AppendSnapshot)
//	u32     CRC-32C of every preceding byte
//
// Version 2 pads every string blob to a 4-byte boundary and drops the
// redundant sparse-subject key column, so every int32 column sits 4-aligned
// relative to the file start. That is what makes the mapped open
// (OpenSnapshotMapped) zero-copy: columns are reinterpreted in place rather
// than decoded, and the engine's arenas borrow the mapping.
//
// The checksum is verified before the engine is returned — streamed for the
// heap loader, via one buffered pass (snapio.ChecksumFile) for the mapped
// loader — so a torn write or bit rot surfaces as snapio.ErrChecksum rather
// than a subtly wrong graph. All corruption is reported through the typed
// snapio errors — never a panic.
package core

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"gqbe/internal/graph"
	"gqbe/internal/snapio"
	"gqbe/internal/stats"
	"gqbe/internal/storage"
)

// snapshotMagic identifies an engine snapshot file.
var snapshotMagic = [8]byte{'G', 'Q', 'B', 'E', 'S', 'N', 'A', 'P'}

// SnapshotVersion is the current snapshot format version. Readers reject
// any other version with snapio.ErrVersion. v2 aligns all columns for the
// zero-copy mapped loader; v1 files must be rebuilt.
const SnapshotVersion = 2

// WriteSnapshot serializes the engine's preprocessed state to w.
func (e *Engine) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	sw := snapio.NewWriter(bw)
	sw.Raw(snapshotMagic[:])
	sw.U32(SnapshotVersion)
	if err := e.g.AppendSnapshot(sw); err != nil {
		return err
	}
	if err := e.store.AppendSnapshot(sw); err != nil {
		return err
	}
	sw.RawU32(sw.Sum32())
	if err := sw.Err(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSnapshot deserializes an engine from r, verifying the checksum before
// returning it.
func ReadSnapshot(r io.Reader) (*Engine, error) {
	start := time.Now()
	br := bufio.NewReaderSize(r, 1<<20)
	sr := snapio.NewReader(br)
	var magic [8]byte
	sr.Raw(magic[:])
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("%w: got % x", snapio.ErrBadMagic, magic[:])
	}
	if v := sr.U32(); sr.Err() != nil {
		return nil, sr.Err()
	} else if v != SnapshotVersion {
		return nil, fmt.Errorf("%w: file is v%d, this binary reads v%d", snapio.ErrVersion, v, SnapshotVersion)
	}
	g, err := graph.ReadSnapshot(sr)
	if err != nil {
		return nil, err
	}
	store, err := storage.ReadSnapshot(sr)
	if err != nil {
		return nil, err
	}
	want := sr.Sum32()
	got := sr.RawU32()
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if got != want {
		return nil, fmt.Errorf("%w: recorded %08x, computed %08x", snapio.ErrChecksum, got, want)
	}
	// The trailer must end the stream: bytes after it are damage the CRC
	// cannot see (a concatenated or padded file), not a valid snapshot.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: data after checksum trailer", snapio.ErrCorrupt)
	}
	e := &Engine{g: g, store: store, stats: stats.New(store)}
	e.info = BuildInfo{Duration: time.Since(start), Shards: 1, FromSnapshot: true}
	return e, nil
}

// WriteSnapshotFile writes the engine snapshot atomically: to a temp file
// in the target directory, fsynced, then renamed over path.
func (e *Engine) WriteSnapshotFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmp := f.Name()
	// CreateTemp's 0600 would survive the rename; snapshots are ordinary
	// data files, so give them the usual umask-filtered mode.
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := e.WriteSnapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// LoadSnapshotFile reads an engine snapshot from path.
func LoadSnapshotFile(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	e, err := ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("snapshot: loading %s: %w", path, err)
	}
	return e, nil
}

// OpenSnapshotMapped opens an engine over a memory-mapped snapshot file.
// The graph's name blob and every int32 column (adjacency, store tables)
// borrow the mapping instead of being decoded onto the heap, so the open
// costs O(sections) allocations and the data pages are shared with the page
// cache — N replicas of the same snapshot pay for its resident pages once.
//
// Integrity matches the heap loader: the CRC-32C trailer is verified over
// the whole payload before any borrowed view is built (one buffered read
// pass that also warms the page cache), and the same framing checks run
// during parsing, so corruption surfaces as the typed snapio errors.
//
// The returned engine holds the mapping until Close; the caller must
// guarantee no query is in flight when it closes (the server's generation
// refcounting does this). On platforms without mmap, OpenMap fails with
// snapio.ErrMapUnsupported and callers fall back to LoadSnapshotFile.
func OpenSnapshotMapped(path string) (*Engine, error) {
	start := time.Now()
	m, err := snapio.OpenMap(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: loading %s: %w", path, err)
	}
	e, err := parseMapped(m)
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("snapshot: loading %s: %w", path, err)
	}
	e.info = BuildInfo{
		Duration:     time.Since(start),
		Shards:       1,
		FromSnapshot: true,
		Mapped:       true,
		MappedBytes:  int64(m.Len()),
	}
	return e, nil
}

// parseMapped verifies and decodes a mapped snapshot into an engine that
// borrows the mapping. The caller closes m on error.
func parseMapped(m *snapio.Map) (*Engine, error) {
	sr := snapio.NewView(m.Data())
	var magic [8]byte
	sr.Raw(magic[:])
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("%w: got % x", snapio.ErrBadMagic, magic[:])
	}
	if v := sr.U32(); sr.Err() != nil {
		return nil, sr.Err()
	} else if v != SnapshotVersion {
		return nil, fmt.Errorf("%w: file is v%d, this binary reads v%d", snapio.ErrVersion, v, SnapshotVersion)
	}
	// Verify the trailer before building any borrowed view. ChecksumFile
	// reads the file with plain read(2), never through the mapping, so the
	// verification pass does not charge the file to this process's RSS.
	got, want, err := snapio.ChecksumFile(m.Path())
	if err != nil {
		return nil, err
	}
	if got != want {
		return nil, fmt.Errorf("%w: recorded %08x, computed %08x", snapio.ErrChecksum, want, got)
	}
	g, err := graph.ReadSnapshot(sr)
	if err != nil {
		return nil, err
	}
	store, err := storage.ReadSnapshot(sr)
	if err != nil {
		return nil, err
	}
	sr.RawU32() // CRC trailer, already verified above
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if sr.Remaining() != 0 {
		return nil, fmt.Errorf("%w: data after checksum trailer", snapio.ErrCorrupt)
	}
	// Prefetch the hot adjacency sections so the first queries don't fault
	// them in one page at a time. Purely advisory — a failure (including the
	// snapio.map.advise fault point) costs readahead, not correctness.
	if aStart, aEnd := g.AdjacencyRange(); aEnd > aStart {
		_ = m.Advise(int(aStart), int(aEnd-aStart))
	}
	return &Engine{g: g, store: store, stats: stats.New(store), m: m}, nil
}
