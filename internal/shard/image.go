package shard

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"miodb/internal/core"
)

// Sharded checkpoint images concatenate one core checkpoint image per
// shard into a single file, so a partitioned store checkpoints and
// restores as one artifact. The shard count is recorded in the header
// and validated on restore — an image written with N shards can only be
// reopened with N shards, because routing is a pure function of (key,
// shard count) and a different count would strand keys on shards their
// hash no longer selects.
//
// File format (little-endian):
//
//	magic(8) = "MioDBshd" | shardCount(4)
//	per shard: imageLen(8) | <core checkpoint image bytes>
const shardImageMagic = 0x4d696f4442736864 // "MioDBshd"

// Checkpoint writes a sharded checkpoint image to path (atomically, via
// a temporary file). Shards are quiesced and serialized one after
// another; each per-shard image is internally consistent, but writes
// issued concurrently with Checkpoint may land in a later shard's image
// and not an earlier one's. Callers wanting one cross-shard-consistent
// cut must pause writes for the duration.
func (r *Router) Checkpoint(path string) error {
	return core.WriteFileAtomic(path, r.writeImage)
}

func (r *Router) writeImage(f *os.File) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], shardImageMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(r.shards)))
	if _, err := f.Write(hdr[:]); err != nil {
		return err
	}
	for i, db := range r.shards {
		// Reserve the length word, stream the shard's image, then patch
		// the length in place — images are written once and never
		// buffered whole in memory.
		lenOff, err := f.Seek(0, io.SeekCurrent)
		if err != nil {
			return err
		}
		var lw [8]byte
		if _, err := f.Write(lw[:]); err != nil {
			return err
		}
		if err := db.CheckpointTo(f); err != nil {
			return fmt.Errorf("miodb/shard: checkpoint shard %d: %w", i, err)
		}
		end, err := f.Seek(0, io.SeekCurrent)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(lw[:], uint64(end-lenOff-8))
		if _, err := f.WriteAt(lw[:], lenOff); err != nil {
			return err
		}
	}
	return nil
}

// ImageInfo reports whether path holds a sharded checkpoint image and,
// if so, its recorded shard count. A readable file with a different
// magic (e.g. a single-engine core image) returns sharded=false with no
// error, so callers can sniff the format before choosing a restore path.
func ImageInfo(path string) (shards int, sharded bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	var hdr [12]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, false, nil // too short to be a sharded image
	}
	if binary.LittleEndian.Uint64(hdr[0:8]) != shardImageMagic {
		return 0, false, nil
	}
	return int(binary.LittleEndian.Uint32(hdr[8:12])), true, nil
}

// OpenImage restores a router from a sharded checkpoint image. shards
// must match the count recorded in the image, or be 0 to adopt the
// recorded count. Every shard recovers through the standard
// crash-recovery path with the given per-shard options.
func OpenImage(path string, shards int, opts core.Options) (*Router, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr [12]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("miodb/shard: image header: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr[0:8]) != shardImageMagic {
		return nil, fmt.Errorf("miodb/shard: not a sharded checkpoint image (single-engine image? open it with Shards ≤ 1)")
	}
	count := int(binary.LittleEndian.Uint32(hdr[8:12]))
	if count < 1 || count > 1<<16 {
		return nil, fmt.Errorf("miodb/shard: absurd shard count %d in image", count)
	}
	if shards != 0 && shards != count {
		return nil, fmt.Errorf("miodb/shard: shard-count mismatch: image has %d shards, options request %d", count, shards)
	}
	return build(count, "image", func(int) (*core.DB, error) {
		var lw [8]byte
		if _, err := io.ReadFull(f, lw[:]); err != nil {
			return nil, fmt.Errorf("length: %w", err)
		}
		lim := io.LimitReader(f, int64(binary.LittleEndian.Uint64(lw[:])))
		img, err := core.ReadImage(lim)
		if err != nil {
			return nil, err
		}
		// The core image reader stops at its own region table; drain any
		// remainder of this shard's extent so the next length word is
		// read from the right offset.
		if _, err := io.Copy(io.Discard, lim); err != nil {
			return nil, err
		}
		return core.Recover(img, opts)
	})
}
