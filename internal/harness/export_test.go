package harness

import (
	"ecvslrc/internal/apps"
	"ecvslrc/internal/mem"
)

// PoisonImage stores other's layout and initial image in the cache under
// app's (app, scale) key — the kind of internal corruption that makes every
// run of app panic — and returns the function that removes it again.
func PoisonImage(app, other string, scale apps.Scale) (restore func(), err error) {
	a, err := apps.New(other, scale)
	if err != nil {
		return nil, err
	}
	poison := &imageEntry{}
	poison.once.Do(func() {
		al := mem.NewAllocator()
		a.Layout(al)
		im := mem.NewImage(al.Size())
		a.Init(im)
		poison.al, poison.im = al, im
	})
	key := imageKey{app, scale}
	imageCache.Store(key, poison)
	return func() { imageCache.Delete(key) }, nil
}
