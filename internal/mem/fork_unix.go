//go:build unix

package mem

import (
	"fmt"
	"os"
	"sync"
	"syscall"
)

// Copy-on-write node images. A template's contents are written once into an
// unlinked file on a memory file system, and every fork is a private
// (MAP_PRIVATE) mapping of that file: the kernel shares each page the fork
// only reads with the file and copies a page on the fork's first write to
// it. A fork is still one flat byte slice, so the nodes' access path does
// not change; it simply costs host memory only for the pages its node
// writes.

// forkState is the copy-on-write side of an Image: on a template, the memory
// file its forks map (created on the first Fork); on a fork, the mark that
// its bytes are a mapping.
type forkState struct {
	mu     sync.Mutex
	file   *os.File
	mapped bool
}

// Fork returns a private copy-on-write copy of im. The first Fork writes
// im's contents to a memory file, the template every later fork of im maps;
// im must not be written after that. A fork must be released (Release),
// never recycled. Safe for concurrent use on one template.
func (im *Image) Fork() (*Image, error) {
	fs := &im.fork
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.file == nil {
		f, err := templateFile(im.data)
		if err != nil {
			return nil, err
		}
		fs.file = f
	}
	data, err := syscall.Mmap(int(fs.file.Fd()), 0, len(im.data),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mem: map image fork: %w", err)
	}
	return &Image{data: data, fork: forkState{mapped: true}}, nil
}

// Release gives back what forking holds. On a fork it unmaps the fork's
// pages, after which the image must not be used. On a template it closes
// the memory file: forks already made stay valid, and a later Fork writes a
// new file. On an image never forked it does nothing.
func (im *Image) Release() error {
	fs := &im.fork
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.mapped {
		data := im.data
		im.data = nil
		return syscall.Munmap(data)
	}
	if fs.file == nil {
		return nil
	}
	err := fs.file.Close()
	fs.file = nil
	return err
}

// templateFile writes data into a new unlinked file in memoryDir: the file
// lives as long as its descriptor and the mappings made from it.
func templateFile(data []byte) (*os.File, error) {
	dir := memoryDir()
	f, err := os.CreateTemp(dir, "ecvslrc-image-")
	if err != nil {
		return nil, fmt.Errorf("mem: image template in %s: %w", dir, err)
	}
	err = os.Remove(f.Name())
	if err == nil {
		_, err = f.Write(data)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("mem: image template in %s: %w", dir, err)
	}
	return f, nil
}

// memoryDir is where template files live: /dev/shm where that is a writable
// directory (tmpfs on Linux), else the system temporary directory.
func memoryDir() string {
	const shm, writable = "/dev/shm", 2 // access(2)'s W_OK
	if st, err := os.Stat(shm); err == nil && st.IsDir() && syscall.Access(shm, writable) == nil {
		return shm
	}
	return os.TempDir()
}
