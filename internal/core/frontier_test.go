package core

import (
	"fmt"
	"strings"
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
// A CALU graph ends with one left-swap task per block column but the last,
// each on one edge from the last finalize (two in verify mode, the second
// from the column's V task).
func TestGraphShapes(t *testing.T) {
	opt := Options{BlockSize: 100, PanelThreads: 4, Workers: 2, Lookahead: true}
	tr1 := opt
	tr1.PanelThreads = 1
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
		{"CALU 10000x200", BuildCALUGraph(10000, 200, opt), 30, 44},
		{"CALU 1024x1024", BuildCALUGraph(1024, 1024, opt), 413, 1102},
		{"CALU 1024x1024 Tr 1", BuildCALUGraph(1024, 1024, tr1), 152, 316},
		{"CAQR 10000x200", BuildCAQRGraph(10000, 200, opt), 21, 35},
		{"CAQR 768x768", BuildCAQRGraph(768, 768, opt), 214, 595},
		{"tiled GETRF 1024x1024", tiled.BuildGETRFGraph(1024, 1024, tile), 204, 476},
		{"tiled GEQRF 1024x1024", tiled.BuildGEQRFGraph(1024, 1024, tile), 204, 476},
		{"CALU 1024x1024 ColsPerTask 3", BuildCALUGraph(1024, 1024, grouped), 248, 805},
		{"CAQR 768x768 ColsPerTask 3", BuildCAQRGraph(768, 768, grouped), 110, 491},
		{"CALU 1024x1024 Verify", lu.Graph(), 424, 1228},
		{"CAQR 768x768 Verify", qr.Graph(), 260, 837},
	} {
		if tasks, edges := tc.g.Len(), tc.g.Edges(); tasks != tc.tasks || edges != tc.edges {
			t.Errorf("%s: %d tasks, %d edges; want %d, %d", tc.name, tasks, edges, tc.tasks, tc.edges)
		}
	}
}

// TestLeftSwapOrder checks the order the last-writer frontier cannot see.
// Block column j's left-swap task reads every panel's ipiv segment, which
// the finalize tasks write, and rewrites rows of the column's L, which its
// panel's L and S tasks and, in verify mode, its V task read. Each of those
// tasks must reach the left-swap task through Task.Succs. The left-swap
// tasks are U tasks labelled "U left j=...", so perfbench books them under
// U and a fault rule on "U k=" misses them, and they have no Out hook.
func TestLeftSwapOrder(t *testing.T) {
	opt := Options{BlockSize: 100, PanelThreads: 4, Workers: 2, Lookahead: true}
	tr1 := opt
	tr1.PanelThreads = 1
	grouped, tr1Grouped := opt, tr1
	grouped.ColsPerTask, tr1Grouped.ColsPerTask = 3, 3
	verify := opt
	verify.Verify = true
	lu, err := PrepareCALU(matrix.Random(1024, 1024, 1), verify)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *sched.Graph
		nb   int
	}{
		{"1024x1024 Tr 4", BuildCALUGraph(1024, 1024, opt), 11},
		{"1024x1024 Tr 1", BuildCALUGraph(1024, 1024, tr1), 11},
		{"1024x1024 Tr 4 ColsPerTask 3", BuildCALUGraph(1024, 1024, grouped), 11},
		{"1024x1024 Tr 1 ColsPerTask 3", BuildCALUGraph(1024, 1024, tr1Grouped), 11},
		{"10000x200 Tr 4", BuildCALUGraph(10000, 200, opt), 2},
		{"1024x1024 Tr 4 Verify", lu.Graph(), 11},
	} {
		preds := make([][]int, tc.g.Len())
		for _, task := range tc.g.Tasks() {
			for _, s := range task.Succs() {
				preds[s] = append(preds[s], task.ID)
			}
		}
		left := 0
		for _, task := range tc.g.Tasks() {
			var j int
			if _, err := fmt.Sscanf(task.Label, "U left j=%d", &j); err != nil {
				continue
			}
			left++
			if task.Kind != sched.KindU || task.Out != nil {
				t.Errorf("%s: %q has kind %v and Out %v; want a U task without Out", tc.name, task.Label, task.Kind, task.Out != nil)
			}
			ancestor := make([]bool, tc.g.Len())
			stack := []int{task.ID}
			for len(stack) > 0 {
				id := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range preds[id] {
					if !ancestor[p] {
						ancestor[p] = true
						stack = append(stack, p)
					}
				}
			}
			sTasks := 0 // a label change must not leave the check vacuous
			for _, r := range tc.g.Tasks() {
				l := r.Label
				isS := strings.HasPrefix(l, fmt.Sprintf("S k=%d ", j))
				if isS {
					sTasks++
				}
				if !isS && !strings.HasPrefix(l, "F k=") &&
					!strings.HasPrefix(l, fmt.Sprintf("L k=%d ", j)) && l != fmt.Sprintf("V k=%d", j) {
					continue
				}
				if !ancestor[r.ID] {
					t.Errorf("%s: %q does not precede %q", tc.name, l, task.Label)
				}
			}
			if sTasks == 0 {
				t.Errorf("%s: no S task of panel %d found", tc.name, j)
			}
		}
		if left != tc.nb-1 {
			t.Errorf("%s: %d left-swap tasks, want %d", tc.name, left, tc.nb-1)
		}
	}
}
