// Package dist implements the distributed-memory origins of CALU and CAQR
// (paper Section II): TSLU and TSQR over P processes with explicit message
// passing, on a miniature MPI-like runtime that counts every message and
// word exchanged.
//
// The point of the package is to make the paper's communication-optimality
// claims checkable: with a binary reduction tree, the panel factorization
// exchanges O(log P) messages per process, whereas classic partial pivoting
// exchanges O(b log P) — one reduction per column. The tests assert both
// counts against the implementations, and that the distributed tournament
// elects exactly the same pivots as the shared-memory tslu package.
package dist

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// message is one point-to-point transfer.
type message struct {
	data []float64
	tag  int
}

// World is a group of P simulated processes connected point-to-point.
// Create one with NewWorld, then Run SPMD functions against per-rank Comm
// handles.
type World struct {
	size  int
	links []chan message // links[from*size+to]
	stats []rankStats
}

type rankStats struct {
	msgs  atomic.Int64
	words atomic.Int64
}

// NewWorld creates a world of size processes.
func NewWorld(size int) *World {
	if size < 1 {
		panic(fmt.Sprintf("dist: world size %d", size))
	}
	w := &World{
		size:  size,
		links: make([]chan message, size*size),
		stats: make([]rankStats, size),
	}
	for i := range w.links {
		// Generous buffering keeps simple SPMD exchanges deadlock-free.
		w.links[i] = make(chan message, 64)
	}
	return w
}

// Size returns the number of processes.
func (w *World) Size() int { return w.size }

// Run executes body once per rank, concurrently, and waits for all ranks.
func (w *World) Run(body func(c *Comm)) {
	var wg sync.WaitGroup
	wg.Add(w.size)
	for r := 0; r < w.size; r++ {
		go func(rank int) {
			defer wg.Done()
			body(&Comm{world: w, rank: rank})
		}(r)
	}
	wg.Wait()
}

// MessagesSent returns the number of messages rank sent.
func (w *World) MessagesSent(rank int) int64 { return w.stats[rank].msgs.Load() }

// WordsSent returns the number of float64 words rank sent.
func (w *World) WordsSent(rank int) int64 { return w.stats[rank].words.Load() }

// TotalMessages returns the message count across all ranks.
func (w *World) TotalMessages() int64 {
	t := int64(0)
	for r := 0; r < w.size; r++ {
		t += w.MessagesSent(r)
	}
	return t
}

// MaxMessagesPerRank returns the maximum per-rank message count — the
// quantity the communication lower bounds are stated in.
func (w *World) MaxMessagesPerRank() int64 {
	max := int64(0)
	for r := 0; r < w.size; r++ {
		if m := w.MessagesSent(r); m > max {
			max = m
		}
	}
	return max
}

// Comm is one rank's communicator.
type Comm struct {
	world *World
	rank  int
}

// Rank returns this process's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Send transfers data to rank `to` with a tag. The data is copied, so the
// sender may reuse the buffer.
func (c *Comm) Send(to, tag int, data []float64) {
	if to < 0 || to >= c.world.size {
		panic(fmt.Sprintf("dist: send to rank %d of %d", to, c.world.size))
	}
	cp := append([]float64(nil), data...)
	c.world.stats[c.rank].msgs.Add(1)
	c.world.stats[c.rank].words.Add(int64(len(cp)))
	c.world.links[c.rank*c.world.size+to] <- message{data: cp, tag: tag}
}

// Recv blocks until a message with the given tag arrives from rank `from`.
// Messages from one sender arrive in order; a tag mismatch is a protocol
// bug and panics.
func (c *Comm) Recv(from, tag int) []float64 {
	if from < 0 || from >= c.world.size {
		panic(fmt.Sprintf("dist: recv from rank %d of %d", from, c.world.size))
	}
	m := <-c.world.links[from*c.world.size+c.rank]
	if m.tag != tag {
		panic(fmt.Sprintf("dist: rank %d expected tag %d from %d, got %d", c.rank, tag, from, m.tag))
	}
	return m.data
}

// Bcast broadcasts root's data to all ranks along a binomial tree
// (log2(P) rounds), returning each rank's copy.
func (c *Comm) Bcast(root, tag int, data []float64) []float64 {
	size := c.world.size
	if size == 1 {
		return data
	}
	// Work in root-relative rank space so any root works. Standard
	// binomial tree: in round k, ranks rel < 2^k forward to rel + 2^k.
	rel := (c.rank - root + size) % size
	var buf []float64
	if rel == 0 {
		buf = data
	}
	for k := 0; 1<<k < size; k++ {
		half := 1 << k
		switch {
		case rel < half:
			if rel+half < size {
				c.Send((rel+half+root)%size, tag, buf)
			}
		case rel < 2*half:
			buf = c.Recv((rel-half+root)%size, tag)
		}
	}
	return buf
}
