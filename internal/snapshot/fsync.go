// Durable write discipline, shared by every on-disk format this
// repository renames into place (CTGSNAP envelopes, CTGMANI manifests,
// CTGSHRD checkpoints, the service layer's CTGCAMP records and the
// resultcache's CTGCACH entries).
//
// Temp-file-plus-rename alone guarantees the target path never holds a
// torn file, but it does not guarantee the rename itself survives power
// loss: the new directory entry lives in the parent directory's pages,
// and until those are flushed a crash can resurrect the old file (or no
// file at all) even though the rename "succeeded". The full discipline
// is therefore:
//
//  1. write the temp file,
//  2. fsync the temp file (its bytes reach stable storage),
//  3. rename over the target (atomic replacement),
//  4. fsync the parent directory (the new entry reaches stable storage).
//
// Filesystems that cannot fsync a directory handle (some network and
// FUSE filesystems return EINVAL/ENOTSUP) degrade gracefully: the
// rename is still atomic, we just lose the power-loss guarantee those
// filesystems never offered in the first place.
//
// The mechanics live in internal/vfs so the whole discipline sits on
// the process-wide FS seam (vfs.Active) and every step — write, fsync,
// rename, parent-directory fsync — is individually injectable by the
// storage-fault layer. Other packages call vfs.WriteFileDurable and
// FS.SyncDir directly; the helpers here add gob encoding on top for
// this package's own formats.
package snapshot

import (
	"encoding/gob"
	"fmt"
	"io"

	"contiguitas/internal/vfs"
)

// writeDurable gob-encodes v to path with the durable-write discipline
// on the active FS.
func writeDurable(path string, v any) error {
	return vfs.WriteDurable(vfs.Active(), path, func(w io.Writer) error {
		if err := gob.NewEncoder(w).Encode(v); err != nil {
			return fmt.Errorf("snapshot: encode: %w", err)
		}
		return nil
	})
}
