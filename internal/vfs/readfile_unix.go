//go:build unix

package vfs

import (
	"io/fs"
	"syscall"
)

// readFile returns the whole contents of path, as os.ReadFile does, in
// four system calls on the common path: open, fstat for the size, one
// read of size+1 bytes, close. os.ReadFile spends ten on Linux for the
// same bytes: it registers the descriptor with the runtime poller
// (fcntl to set and clear O_NONBLOCK, twice, and an epoll_ctl that a
// regular file refuses) and reads a second time only to see EOF.
//
// The read stops once it holds exactly the size fstat reported, or at
// a zero-byte read. A file that grew since the fstat fills the buffer,
// and one that shrank or reports size 0 (Linux /proc) comes up short;
// both read on until EOF. Errors are the *fs.PathError values
// os.ReadFile returns, with the same Op.
func readFile(path string) ([]byte, error) {
	var fd int
	var err error
	for {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: path, Err: err}
	}
	defer syscall.Close(fd)

	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		return nil, &fs.PathError{Op: "stat", Path: path, Err: err}
	}
	size := -1
	if int64(int(st.Size)) == st.Size {
		size = int(st.Size)
	}
	// At least 512 bytes, as os.ReadFile: files that claim size 0 may
	// misbehave when read in small pieces.
	data := make([]byte, 0, max(size+1, 512))
	for {
		n, err := syscall.Read(fd, data[len(data):cap(data)])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return data, &fs.PathError{Op: "read", Path: path, Err: err}
		}
		data = data[:len(data)+n]
		if n == 0 || len(data) == size {
			return data, nil
		}
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
	}
}
