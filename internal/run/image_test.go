package run

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
)

// seededPhaseApp is phaseApp with a nonzero initial array, so processor 0's
// fill writes bytes that differ from the image every node starts from; a
// broken one fails verification after a complete simulation.
type seededPhaseApp struct {
	phaseApp
	broken bool
}

func (a *seededPhaseApp) Init(im *mem.Image) {
	for i := 0; i < a.n; i++ {
		im.WriteI32(a.addr(i), int32(-i))
	}
}

func (a *seededPhaseApp) Verify(im *mem.Image) error {
	if a.broken {
		return errors.New("broken on purpose")
	}
	return a.phaseApp.Verify(im)
}

// forkedProcs is the paper machine's processor count: every node forks its
// image, whatever the count.
const forkedProcs = 8

// cachedTemplate lays app out and seeds its initial image, as the harness
// cache does, and returns the options that hand both to a run. The caller
// releases the image.
func cachedTemplate(app *seededPhaseApp) Options {
	al := mem.NewAllocator()
	app.Layout(al)
	im := mem.NewImage(al.Size())
	app.Init(im)
	return Options{InitImage: im, Layout: al}
}

// TestForkedRunKeepsCachedImage: the nodes map the cached initial image
// copy-on-write, and what they write never reaches it; nor does what the
// sequential program writes into its fork. After a run, the cached image —
// its bytes and what a later fork of it reads — is byte-equal to a freshly
// seeded one, so the next cell starts from the same memory and reproduces
// the run exactly.
func TestForkedRunKeepsCachedImage(t *testing.T) {
	cm := fabric.DefaultCostModel()
	for _, impl := range []core.Impl{
		{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs},
		{Model: core.EC, Trap: core.CompilerInstr, Collect: core.Timestamps},
	} {
		t.Run(impl.String(), func(t *testing.T) {
			app := &seededPhaseApp{phaseApp: phaseApp{n: 8 * mem.PageWords, procs: forkedProcs}}
			opts := cachedTemplate(app)
			cached := opts.InitImage
			defer cached.Release()
			fresh := append([]byte(nil), cached.Bytes()...)
			opts.KeepImage = true
			first, err := RunWith(app, impl, forkedProcs, cm, opts)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(first.Image, fresh) {
				t.Fatal("the run wrote nothing: the test cannot see a leak into the template")
			}
			if !bytes.Equal(cached.Bytes(), fresh) {
				t.Error("a forked run wrote into the cached image")
			}
			next, err := cached.Fork()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(next.Bytes(), fresh) {
				t.Error("a forked run wrote into the cached image's memory file: the next fork starts from its writes")
			}
			next.Release()

			again, err := RunWith(app, impl, forkedProcs, cm, opts)
			if err != nil {
				t.Fatal(err)
			}
			if again.Stats != first.Stats || !bytes.Equal(again.Image, first.Image) {
				t.Error("a second run from the cached image differs from the first")
			}
		})
	}
	t.Run("sequential", func(t *testing.T) {
		// One processor sums the whole array it fills over the seeded one.
		app := &seededPhaseApp{phaseApp: phaseApp{n: 8 * mem.PageWords, procs: 1}}
		opts := cachedTemplate(app)
		defer opts.InitImage.Release()
		fresh := append([]byte(nil), opts.InitImage.Bytes()...)
		first, err := RunSeqWith(app, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(opts.InitImage.Bytes(), fresh) {
			t.Error("a sequential run wrote into the cached image")
		}
		if again, err := RunSeqWith(app, opts); err != nil || again != first {
			t.Errorf("a second sequential run from the cached image took %v (err %v), the first %v", again, err, first)
		}
	})
}

// TestForkedRunsReleaseMappings: every path out of a forked run — success,
// a failed verification, a cached or a run-seeded template, a sequential run
// on a fork of a cached template — unmaps the images and closes the
// template files it opened, so twenty such cells leave the image mappings in
// /proc/self/maps and the entries of /proc/self/fd as they found them. (The
// Go runtime maps anonymous memory of its own as it goes, so the count is of
// mappings of memory files.)
func TestForkedRunsReleaseMappings(t *testing.T) {
	if _, err := os.Stat("/proc/self/maps"); err != nil {
		t.Skip("no /proc/self/maps")
	}
	cm := fabric.DefaultCostModel()
	impl := core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}
	cell := func(i int) {
		app := &seededPhaseApp{phaseApp: phaseApp{n: 4 * mem.PageWords, procs: forkedProcs}}
		seq := &seededPhaseApp{phaseApp: phaseApp{n: 4 * mem.PageWords, procs: 1}}
		var opts, seqOpts Options
		if i%2 == 1 { // cached templates, released by their owner
			opts, seqOpts = cachedTemplate(app), cachedTemplate(seq)
			defer opts.InitImage.Release()
			defer seqOpts.InitImage.Release()
		}
		app.broken = i%4 == 3 // verification fails after the simulation
		seq.broken = app.broken
		if _, err := RunWith(app, impl, forkedProcs, cm, opts); app.broken != (err != nil) {
			t.Fatalf("cell %d: err = %v", i, err)
		}
		if _, err := RunSeqWith(seq, seqOpts); seq.broken != (err != nil) {
			t.Fatalf("cell %d sequential: err = %v", i, err)
		}
	}
	// Warm up: the first cells grow the Go heap and the runtime's own
	// mappings, which are not the cells' to give back.
	for i := 0; i < 4; i++ {
		cell(i)
	}
	maps0, fds0 := countImageMaps(t), countFDs(t)
	for i := 0; i < 20; i++ {
		cell(i)
	}
	// The count sees a fork's mapping.
	tmpl := mem.NewImage(mem.PageSize)
	fork, err := tmpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if n := countImageMaps(t); n != maps0+1 {
		t.Errorf("a live fork shows as %d image mappings, want %d", n, maps0+1)
	}
	fork.Release()
	tmpl.Release()
	if maps, fds := countImageMaps(t), countFDs(t); maps != maps0 || fds != fds0 {
		t.Errorf("after 20 forked cells: %d image mappings and %d descriptors, want %d and %d", maps, fds, maps0, fds0)
	}
}

// countImageMaps counts the lines of /proc/self/maps that map a node
// image's memory file.
func countImageMaps(t *testing.T) int {
	t.Helper()
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), "/ecvslrc-image-")
}

func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}
