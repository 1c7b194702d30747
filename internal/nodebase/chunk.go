package nodebase

// Chunk carves small slices out of larger allocations, so state made of many
// small pieces costs one malloc per chunk instead of one per piece: LRC page
// state and message vectors, EC lock slots and bound ranges. A carved
// slice's capacity equals its length: appending to it reallocates instead of
// writing into the next piece. A chunk stays live while any piece carved from
// it does, so a chunk suits pieces that die together (a node's page state
// lives as long as the run) or soon (message vectors are consumed on
// delivery); one long-lived piece among short-lived ones pins the rest.
type Chunk[T any] struct {
	Size int // elements per chunk; a larger request gets its own allocation
	tail []T // the uncarved rest of the current chunk
}

// Carve returns a zeroed slice of length and capacity k. When the current
// chunk's tail is too short, the tail is abandoned and a new chunk begins.
func (c *Chunk[T]) Carve(k int) []T {
	if k > len(c.tail) {
		if k > c.Size {
			return make([]T, k)
		}
		c.tail = make([]T, c.Size)
	}
	s := c.tail[:k:k]
	c.tail = c.tail[k:]
	return s
}
