package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/sched"
)

// runCALU and runCAQR factor a on pool (nil: a private pool) under ctx
// through the request pipeline.
func runCALU(ctx context.Context, a *matrix.Dense, opt Options, pool *sched.Pool) (*LUResult, error) {
	p, err := PrepareCALU(a, opt)
	if err != nil {
		return nil, err
	}
	return p.Finish(Run(ctx, pool, p))
}

func runCAQR(ctx context.Context, a *matrix.Dense, opt Options, pool *sched.Pool) (*QRResult, error) {
	p, err := PrepareCAQR(a, opt)
	if err != nil {
		return nil, err
	}
	return p.Finish(Run(ctx, pool, p))
}

// TestCALUWithPoolCtxPreCancelled runs CALU under an already-cancelled
// context: Run must reject the submission before any task runs.
func TestCALUWithPoolCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := matrix.Random(60, 30, 1)
	orig := a.Clone()
	_, err := runCALU(ctx, a, Options{BlockSize: 8, Workers: 2}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CALU run = %v, want context.Canceled", err)
	}
	// Rejected before submission: not a single task ran, a is untouched.
	if !a.Equal(orig) {
		t.Fatal("pre-cancelled CALU modified the input matrix")
	}
}

func TestCAQRWithPoolCtxDeadlineAlreadyExpired(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	a := matrix.Random(60, 30, 2)
	_, err := runCAQR(ctx, a, Options{BlockSize: 8, Workers: 2}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CAQR run = %v, want context.DeadlineExceeded", err)
	}
}

// TestCALUWithPoolCtxWideMatrixPreCancelled covers the wide-matrix (m < n)
// path: the context error must propagate out of Finish, with no partial
// result and the trailing columns untouched.
func TestCALUWithPoolCtxWideMatrixPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := matrix.Random(20, 50, 3)
	orig := a.Clone()
	res, err := runCALU(ctx, a, Options{BlockSize: 8, Workers: 2}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("wide CALU run = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("wide CALU run returned a partial result alongside the error")
	}
	if !a.Equal(orig) {
		t.Fatal("pre-cancelled wide CALU modified the input matrix")
	}
}

// TestCtxCancelledSharedPoolStaysUsable cancels one factorization on a
// shared pool and checks the pool still serves a fresh one correctly.
func TestCtxCancelledSharedPoolStaysUsable(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	opt := Options{BlockSize: 8, PanelThreads: 2, Workers: 2, Lookahead: true}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runCALU(ctx, matrix.Random(80, 40, 4), opt, pool); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled CALU = %v, want context.Canceled", err)
	}

	a := matrix.Random(80, 40, 5)
	want := a.Clone()
	if _, err := CALU(want, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := runCALU(context.Background(), a, opt, pool); err != nil {
		t.Fatalf("pool unusable after cancelled submission: %v", err)
	}
	if !a.Equal(want) {
		t.Fatal("factors after a cancelled submission differ from a fresh run")
	}
}
