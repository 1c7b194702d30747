//go:build !unix

package mem

// Without memory-file mappings a fork is a heap copy of its template. It
// keeps the unix semantics: a fork is never recycled, and releasing a
// template does nothing harmful.

// forkState marks a fork (mapped, as the unix fork is a mapping).
type forkState struct {
	mapped bool
}

// Fork returns a private copy of im. A fork must be released (Release),
// never recycled. Safe for concurrent use on one template.
func (im *Image) Fork() (*Image, error) {
	data := make([]byte, len(im.data))
	copy(data, im.data)
	return &Image{data: data, fork: forkState{mapped: true}}, nil
}

// Release drops a fork's bytes, after which the image must not be used. On
// any other image it does nothing.
func (im *Image) Release() error {
	if im.fork.mapped {
		im.data = nil
	}
	return nil
}
