package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"miodb/internal/nvm"
	"miodb/internal/vaddr"
)

// Checkpoint images give the simulation process-level durability: the
// entire simulated NVM — superblock, WALs, PMTable arenas, repository —
// is serialized to a real file, and LoadImage rebuilds a store from it
// through the same code path as crash recovery. Semantically a checkpoint
// is a consistent point-in-time copy of the NVM; on real hardware the NVM
// itself would be the durable medium and no image would be needed.
//
// Image format (little-endian):
//
//	magic(8) | regionCount(4)
//	per region: index(4) | chunkSize(4) | extent(8) | crc32(4) | data
//
// The data of each region is its allocated extent, written chunk by chunk;
// a chunk backed by less than the chunk size is padded with zeros, so a
// loaded region backs every chunk in full.
const imageMagic = 0x4d696f4442696d67 // "MioDBimg"

// WriteImage serializes the store's persistent (NVM) state. The store
// must be quiesced first — Checkpoint handles that; callers using
// WriteImage directly must guarantee no concurrent mutation.
func (db *DB) WriteImage(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)

	// Collect live NVM regions (meter == the NVM device).
	var regions []*vaddr.Region
	for _, r := range db.space.Regions() {
		if r.Meter() == vaddr.Meter(db.nvm) {
			regions = append(regions, r)
		}
	}

	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], imageMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(regions)))
	if _, err := bw.Write(hdr[:12]); err != nil {
		return err
	}
	for _, r := range regions {
		extent := r.Size()
		crc := crc32.NewIEEE()
		// First pass: checksum the content.
		if err := writeRegionData(io.MultiWriter(crc), r, extent); err != nil {
			return err
		}
		var rh [20]byte
		binary.LittleEndian.PutUint32(rh[0:4], r.Index())
		binary.LittleEndian.PutUint32(rh[4:8], uint32(r.ChunkSize()))
		binary.LittleEndian.PutUint64(rh[8:16], uint64(extent))
		binary.LittleEndian.PutUint32(rh[16:20], crc.Sum32())
		if _, err := bw.Write(rh[:]); err != nil {
			return err
		}
		if err := writeRegionData(bw, r, extent); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeRegionData writes the region's first extent bytes chunk by chunk,
// the unbacked tail of a short chunk as zeros.
func writeRegionData(w io.Writer, r *vaddr.Region, extent int64) error {
	chunk := int64(r.ChunkSize())
	var zeros []byte
	for off := int64(0); off < extent; off += chunk {
		n := min(chunk, extent-off)
		backed := min(n, r.ChunkEnd(off)-off)
		if _, err := w.Write(r.Bytes(r.Base().Add(off), int(backed))); err != nil {
			return err
		}
		if backed < n {
			if zeros == nil {
				zeros = make([]byte, chunk)
			}
			if _, err := w.Write(zeros[:n-backed]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Checkpoint quiesces the store and writes a checkpoint image to path
// (atomically, via a temporary file). The store keeps running afterwards.
func (db *DB) Checkpoint(path string) error {
	return WriteFileAtomic(path, func(f *os.File) error { return db.CheckpointTo(f) })
}

// WriteFileAtomic has write fill a temporary file beside path, then
// renames it over path; on any error the temporary file is removed and
// path is left as it was.
func WriteFileAtomic(path string, write func(*os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// CheckpointTo quiesces the store and streams a checkpoint image to w.
// Unlike Checkpoint it does not provide atomic file replacement — callers
// embedding the image in a larger file (the shard router's multi-shard
// images) own that. The store keeps running afterwards.
func (db *DB) CheckpointTo(w io.Writer) error {
	// The SSD tier and SSD value-log segments are outside the NVM image.
	if err := Refusal(OpCheckpoint, db.opts, 1, false); err != nil {
		return err
	}
	// Force the volatile buffer out so the image is self-contained even
	// without WAL replay, then drain background work so no compaction is
	// mid-flight (the image would still recover via the insertion marks,
	// but a quiesced image is simpler to reason about).
	if err := db.FlushAll(); err != nil {
		return err
	}
	// Hold the commit lock (WAL appends + memtable inserts happen under it)
	// and the structural lock so nothing mutates the NVM during the copy;
	// reads keep flowing.
	db.commitMu.Lock()
	db.mu.Lock()
	err := db.WriteImage(w)
	db.mu.Unlock()
	db.commitMu.Unlock()
	return err
}

// ReadImage reconstructs a crash image from a serialized checkpoint.
func ReadImage(r io.Reader) (*CrashImage, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("miodb: image header: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr[0:8]) != imageMagic {
		return nil, fmt.Errorf("miodb: not a checkpoint image")
	}
	count := binary.LittleEndian.Uint32(hdr[8:12])
	if count > 1<<22 {
		return nil, fmt.Errorf("miodb: absurd region count %d", count)
	}

	space := vaddr.NewSpace()
	dev := nvm.NewDevice(space, nvm.NVMProfile())
	buf := make([]byte, 1<<20)
	for i := uint32(0); i < count; i++ {
		var rh [20]byte
		if _, err := io.ReadFull(br, rh[:]); err != nil {
			return nil, fmt.Errorf("miodb: image region header: %w", err)
		}
		index := binary.LittleEndian.Uint32(rh[0:4])
		chunkSize := int(binary.LittleEndian.Uint32(rh[4:8]))
		extent := int64(binary.LittleEndian.Uint64(rh[8:16]))
		wantCRC := binary.LittleEndian.Uint32(rh[16:20])

		region, err := space.Restore(index, chunkSize, dev)
		if err != nil {
			return nil, err
		}
		if err := region.RestoreExtent(extent); err != nil {
			return nil, err
		}
		crc := crc32.NewIEEE()
		chunk := int64(region.ChunkSize())
		for off := int64(0); off < extent; off += chunk {
			n := chunk
			if off+n > extent {
				n = extent - off
			}
			if int64(len(buf)) < n {
				buf = make([]byte, n)
			}
			if _, err := io.ReadFull(br, buf[:n]); err != nil {
				return nil, fmt.Errorf("miodb: image region %d data: %w", index, err)
			}
			crc.Write(buf[:n])
			copy(region.Bytes(region.Base().Add(off), int(n)), buf[:n])
		}
		if crc.Sum32() != wantCRC {
			return nil, fmt.Errorf("miodb: image region %d checksum mismatch", index)
		}
	}
	return &CrashImage{Space: space, NVM: dev}, nil
}

// OpenImage loads a checkpoint file and recovers a running store from it.
// opts must match the checkpointed store's structural options.
func OpenImage(path string, opts Options) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	img, err := ReadImage(f)
	if err != nil {
		return nil, err
	}
	return Recover(img, opts)
}
