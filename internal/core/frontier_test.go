package core

import (
	"testing"
	"testing/quick"

	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/tiled"
)

func mkTask(id int) *sched.Task { return &sched.Task{ID: id} }

func ids(tasks []*sched.Task) map[int]bool {
	out := map[int]bool{}
	for _, t := range tasks {
		out[t.ID] = true
	}
	return out
}

func TestFrontierEmptyReads(t *testing.T) {
	var f frontier
	if deps := f.read(0, 100); len(deps) != 0 {
		t.Fatalf("empty frontier returned deps %v", deps)
	}
}

func TestFrontierWriteThenRead(t *testing.T) {
	var f frontier
	a := mkTask(1)
	if deps := f.write(10, 20, a); len(deps) != 0 {
		t.Fatalf("first write had deps %v", deps)
	}
	if deps := ids(f.read(15, 25)); !deps[1] {
		t.Fatal("overlapping read missed writer")
	}
	if deps := f.read(20, 30); len(deps) != 0 {
		t.Fatal("half-open boundary: [20,30) must not overlap [10,20)")
	}
	if deps := f.read(0, 10); len(deps) != 0 {
		t.Fatal("[0,10) must not overlap [10,20)")
	}
}

func TestFrontierSplit(t *testing.T) {
	// Writer A covers [0, 100); writer B overwrites [40, 60): A must remain
	// the last writer of [0,40) and [60,100).
	var f frontier
	a, b := mkTask(1), mkTask(2)
	f.write(0, 100, a)
	deps := ids(f.write(40, 60, b))
	if !deps[1] || len(deps) != 1 {
		t.Fatalf("B deps = %v", deps)
	}
	if d := ids(f.read(0, 10)); !d[1] || d[2] {
		t.Fatalf("left remnant deps = %v", d)
	}
	if d := ids(f.read(45, 50)); !d[2] || d[1] {
		t.Fatalf("middle deps = %v", d)
	}
	if d := ids(f.read(80, 90)); !d[1] || d[2] {
		t.Fatalf("right remnant deps = %v", d)
	}
}

func TestFrontierCoverRemoves(t *testing.T) {
	var f frontier
	a, b := mkTask(1), mkTask(2)
	f.write(10, 20, a)
	f.write(0, 50, b) // fully covers a
	if d := ids(f.read(12, 18)); d[1] || !d[2] {
		t.Fatalf("covered writer still visible: %v", d)
	}
	if len(f.spans) != 1 {
		t.Fatalf("spans = %v", f.spans)
	}
}

func TestFrontierTrimEdges(t *testing.T) {
	var f frontier
	a, b, c := mkTask(1), mkTask(2), mkTask(3)
	f.write(0, 50, a)
	f.write(40, 80, b) // trims a's tail
	f.write(70, 90, c) // trims b's tail
	cases := []struct {
		lo, hi int
		want   int
	}{
		{0, 10, 1}, {35, 40, 1}, {40, 45, 2}, {60, 70, 2}, {75, 85, 3},
	}
	for _, tc := range cases {
		d := ids(f.read(tc.lo, tc.hi))
		if len(d) != 1 || !d[tc.want] {
			t.Fatalf("read [%d,%d) = %v want {%d}", tc.lo, tc.hi, d, tc.want)
		}
	}
}

// Property: after any sequence of writes, (a) spans never overlap, (b) the
// last writer of any point is the most recent write covering it.
func TestFrontierProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		var fr frontier
		last := map[int]int{} // point -> task id (oracle)
		for i, op := range ops {
			lo := int(op % 64)
			hi := lo + 1 + int(op/64%32)
			task := mkTask(i + 1)
			fr.write(lo, hi, task)
			for p := lo; p < hi; p++ {
				last[p] = task.ID
			}
		}
		// Check no overlaps.
		for i, s1 := range fr.spans {
			if s1.lo >= s1.hi {
				return false
			}
			for _, s2 := range fr.spans[i+1:] {
				if s1.lo < s2.hi && s2.lo < s1.hi {
					return false
				}
			}
		}
		// Check per-point last-writer agreement.
		for p, want := range last {
			d := ids(fr.read(p, p+1))
			if len(d) != 1 || !d[want] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestGraphShapes pins exact task and edge counts, so a change to the graph
// wiring (frontiers, trailing column groups, Graph.AddDeps) that adds or
// drops a task or an edge fails here. Verify mode adds the V and C tasks.
func TestGraphShapes(t *testing.T) {
	opt := Options{BlockSize: 100, PanelThreads: 4, Workers: 2, Lookahead: true}
	grouped := opt
	grouped.ColsPerTask = 3
	verify := opt
	verify.Verify = true
	lu, err := PrepareCALU(matrix.Random(1024, 1024, 1), verify)
	if err != nil {
		t.Fatal(err)
	}
	qr, err := PrepareCAQR(matrix.Random(768, 768, 1), verify)
	if err != nil {
		t.Fatal(err)
	}
	tile := tiled.Options{TileSize: 128, Workers: 2}
	for _, tc := range []struct {
		name         string
		g            *sched.Graph
		tasks, edges int
	}{
		{"CALU 10000x200", BuildCALUGraph(10000, 200, opt), 29, 43},
		{"CALU 1024x1024", BuildCALUGraph(1024, 1024, opt), 403, 1092},
		{"CAQR 10000x200", BuildCAQRGraph(10000, 200, opt), 21, 35},
		{"CAQR 768x768", BuildCAQRGraph(768, 768, opt), 214, 595},
		{"tiled GETRF 1024x1024", tiled.BuildGETRFGraph(1024, 1024, tile), 204, 476},
		{"tiled GEQRF 1024x1024", tiled.BuildGEQRFGraph(1024, 1024, tile), 204, 476},
		{"CALU 1024x1024 ColsPerTask 3", BuildCALUGraph(1024, 1024, grouped), 238, 795},
		{"CAQR 768x768 ColsPerTask 3", BuildCAQRGraph(768, 768, grouped), 110, 491},
		{"CALU 1024x1024 Verify", lu.Graph(), 414, 1208},
		{"CAQR 768x768 Verify", qr.Graph(), 260, 837},
	} {
		if tasks, edges := tc.g.Len(), tc.g.Edges(); tasks != tc.tasks || edges != tc.edges {
			t.Errorf("%s: %d tasks, %d edges; want %d, %d", tc.name, tasks, edges, tc.tasks, tc.edges)
		}
	}
}
