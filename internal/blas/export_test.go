package blas

// Test hooks for the differential suite (diff_test.go runs every case on
// every register tile this host can run) and fringe-size selection.

// Register tile dimensions, exported for fringe-size test construction.
const (
	TestMR = gemmMR
	TestNR = gemmNR
)

// String returns the tile's short name, which names its subtests.
func (t tile) String() string {
	return [...]string{"generic", "avx2", "avx512"}[t]
}

// probedTile snapshots the init-time probe result before tests mutate the
// dispatch.
var probedTile = gemmTile

// tilesUpTo lists the tiles a host whose best tile is best can run, in
// probe order: generic first, best last.
func tilesUpTo(best tile) []tile {
	var ts []tile
	for t := tileGeneric; t <= best; t++ {
		ts = append(ts, t)
	}
	return ts
}

// Tiles names the register tiles this host can run: "generic" first, the
// probed default last.
func Tiles() []string {
	var names []string
	for _, t := range tilesUpTo(probedTile) {
		names = append(names, t.String())
	}
	return names
}

// ForceTile runs every kernel as on a host whose best tile is the named
// one (see Tiles): that tile for the BLAS3 routines, and the level-1
// assembly exactly when it is not "generic". It returns a func that undoes
// the change, and panics on a tile this host cannot run.
func ForceTile(name string) (restore func()) {
	for _, t := range tilesUpTo(probedTile) {
		if t.String() == name {
			oldTile, oldAsm := gemmTile, useAsmKernel
			gemmTile, useAsmKernel = t, t != tileGeneric
			return func() { gemmTile, useAsmKernel = oldTile, oldAsm }
		}
	}
	panic("blas: tile " + name + " is not available on this host")
}
