package lrc

// chunk carves small slices out of larger allocations, so state made of many
// small pieces costs one malloc per chunk instead of one per piece. A carved
// slice's capacity equals its length: appending to it reallocates instead of
// writing into the next piece. A chunk stays live while any piece carved from
// it does, so a chunk suits pieces that die together (a node's page state
// lives as long as the run) or soon (message vectors are consumed on
// delivery); one long-lived piece among short-lived ones pins the rest.
type chunk[T any] struct {
	tail []T // the uncarved rest of the current chunk
	size int // elements per chunk; a larger request gets its own allocation
}

// carve returns a zeroed slice of length and capacity k. When the current
// chunk's tail is too short, the tail is abandoned and a new chunk begins.
func (c *chunk[T]) carve(k int) []T {
	if k > len(c.tail) {
		if k > c.size {
			return make([]T, k)
		}
		c.tail = make([]T, c.size)
	}
	s := c.tail[:k:k]
	c.tail = c.tail[k:]
	return s
}

// Chunk sizes. Each run has one chunk of each kind, not one per node, so
// an unused tail is not multiplied by the processor count.
const (
	metaChunk   = 256  // pageMetas per chunk: 14 KiB
	windowChunk = 1024 // writer windows per chunk: 12 KiB
	vecChunk    = 4096 // vector elements per chunk: 16 KiB
)
