package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/matrix"
	"repro/internal/sched"
)

// runMerged executes the prepared requests as one merged submission on a
// shared pool, returning the submission error.
func runMerged(t *testing.T, workers int, reqs ...Request) error {
	t.Helper()
	pool := sched.NewPool(workers)
	defer pool.Close()
	return Run(context.Background(), pool, reqs...)
}

// TestPreparedBatchMatchesSolo factors several matrices through one merged
// submission and checks every factor bit-identical to the solo entry
// points: coalescing must not change a single bit.
func TestPreparedBatchMatchesSolo(t *testing.T) {
	opt := Options{BlockSize: 8, PanelThreads: 2, Workers: 2, Lookahead: true}

	luIn := []*matrix.Dense{
		matrix.Random(40, 24, 1),
		matrix.Random(31, 31, 2),
	}
	qrIn := matrix.Random(37, 16, 3)

	// Solo reference runs.
	luWant := make([]*matrix.Dense, len(luIn))
	var luWantRes []*LUResult
	for i, a := range luIn {
		ref := a.Clone()
		res, err := CALU(ref, opt)
		if err != nil {
			t.Fatalf("solo CALU %d: %v", i, err)
		}
		luWant[i] = ref
		luWantRes = append(luWantRes, res)
	}
	qrWant := qrIn.Clone()
	if _, err := CAQR(qrWant, opt); err != nil {
		t.Fatalf("solo CAQR: %v", err)
	}

	// Batched run: prepare all three, merge, execute once, finish each.
	luBatch := make([]*matrix.Dense, len(luIn))
	luPreps := make([]*PreparedLU, len(luIn))
	var reqs []Request
	for i, a := range luIn {
		luBatch[i] = a.Clone()
		p, err := PrepareCALU(luBatch[i], opt)
		if err != nil {
			t.Fatalf("PrepareCALU %d: %v", i, err)
		}
		luPreps[i] = p
		reqs = append(reqs, p)
	}
	qrBatch := qrIn.Clone()
	qp, err := PrepareCAQR(qrBatch, opt)
	if err != nil {
		t.Fatalf("PrepareCAQR: %v", err)
	}
	reqs = append(reqs, qp)

	runErr := runMerged(t, 3, reqs...)
	for i, p := range luPreps {
		res, err := p.Finish(runErr)
		if err != nil {
			t.Fatalf("LU Finish %d: %v", i, err)
		}
		if !luBatch[i].Equal(luWant[i]) {
			t.Fatalf("batched LU %d factors differ from solo", i)
		}
		if !slices.Equal(res.Ipiv, luWantRes[i].Ipiv) {
			t.Fatalf("batched LU %d pivots %v differ from solo %v", i, res.Ipiv, luWantRes[i].Ipiv)
		}
	}
	if _, err := qp.Finish(runErr); err != nil {
		t.Fatalf("QR Finish: %v", err)
	}
	if !qrBatch.Equal(qrWant) {
		t.Fatal("batched QR factors differ from solo")
	}
}

// TestPreparedBatchSingularIsolated checks per-request failure isolation
// for input errors: a singular matrix in the batch fails its own Finish
// with ErrSingular while its batch-mates succeed untouched.
func TestPreparedBatchSingularIsolated(t *testing.T) {
	opt := Options{BlockSize: 4, PanelThreads: 2, Workers: 2, Lookahead: true}
	good := matrix.Random(20, 12, 7)
	goodWant := good.Clone()
	if _, err := CALU(goodWant, opt); err != nil {
		t.Fatalf("solo CALU: %v", err)
	}
	sing := matrix.New(16, 16) // all zeros: rank deficient at panel 0

	goodBatch := good.Clone()
	pg, err := PrepareCALU(goodBatch, opt)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := PrepareCALU(sing, opt)
	if err != nil {
		t.Fatal(err)
	}
	runErr := runMerged(t, 2, pg, ps)
	if runErr != nil {
		t.Fatalf("merged run failed: %v", runErr)
	}
	if _, err := pg.Finish(nil); err != nil {
		t.Fatalf("good request failed: %v", err)
	}
	if !goodBatch.Equal(goodWant) {
		t.Fatal("good request's factors differ from solo after batched run")
	}
	if _, err := ps.Finish(nil); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular request Finish = %v, want ErrSingular", err)
	}
}

// TestPrepareRejects covers the validation surface: nil/empty inputs and
// non-finite entries are rejected before any graph is built.
func TestPrepareRejects(t *testing.T) {
	opt := Options{BlockSize: 4, Workers: 1}
	if _, err := PrepareCALU(nil, opt); !errors.Is(err, ErrShape) {
		t.Fatalf("PrepareCALU(nil) = %v, want ErrShape", err)
	}
	if _, err := PrepareCAQR(matrix.New(0, 0), opt); !errors.Is(err, ErrShape) {
		t.Fatalf("PrepareCAQR(empty) = %v, want ErrShape", err)
	}
	bad := matrix.Random(8, 8, 2)
	bad.Set(3, 4, math.NaN())
	if _, err := PrepareCALU(bad, opt); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("PrepareCALU(NaN) = %v, want ErrNonFinite", err)
	}
	if _, err := PrepareCAQR(bad, opt); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("PrepareCAQR(NaN) = %v, want ErrNonFinite", err)
	}
	// A non-finite entry right of a wide matrix's leading square block is
	// caught too, although the task graph never touches those columns.
	wideBad := matrix.Random(4, 9, 3)
	wideBad.Set(1, 7, math.Inf(1))
	if _, err := PrepareCALU(wideBad, opt); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("PrepareCALU(wide, Inf) = %v, want ErrNonFinite", err)
	}

	// A wide matrix is accepted: riding a merged submission with a tall
	// batch-mate, its prepared run is bit-identical to the solo result.
	wide, tall := matrix.Random(12, 29, 1), matrix.Random(20, 12, 4)
	luWant, qrWant := wide.Clone(), wide.Clone()
	if _, err := CALU(luWant, opt); err != nil {
		t.Fatalf("solo wide CALU: %v", err)
	}
	if _, err := CAQR(qrWant, opt); err != nil {
		t.Fatalf("solo wide CAQR: %v", err)
	}
	luGot, qrGot := wide.Clone(), wide.Clone()
	pl, err := PrepareCALU(luGot, opt)
	if err != nil {
		t.Fatalf("PrepareCALU(wide): %v", err)
	}
	pq, err := PrepareCAQR(qrGot, opt)
	if err != nil {
		t.Fatalf("PrepareCAQR(wide): %v", err)
	}
	pt, err := PrepareCALU(tall.Clone(), opt)
	if err != nil {
		t.Fatal(err)
	}
	runErr := runMerged(t, 2, pl, pq, pt)
	if _, err := pl.Finish(runErr); err != nil {
		t.Fatalf("wide LU Finish: %v", err)
	}
	if _, err := pq.Finish(runErr); err != nil {
		t.Fatalf("wide QR Finish: %v", err)
	}
	if !luGot.Equal(luWant) {
		t.Fatal("prepared wide LU differs from solo")
	}
	// The leading block is factored exactly as on its own.
	sqWant := wide.View(0, 0, 12, 12).Clone()
	if _, err := CALU(sqWant, opt); err != nil {
		t.Fatal(err)
	}
	if !luGot.View(0, 0, 12, 12).Equal(sqWant) {
		t.Fatal("wide LU's leading block differs from factoring it alone")
	}
	if !qrGot.Equal(qrWant) {
		t.Fatal("prepared wide QR differs from solo")
	}
}
