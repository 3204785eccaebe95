package tcpnet

import (
	"sync"

	"catocs/internal/transport"
)

// task is one unit of work for the dispatcher goroutine: either a
// function (After/Inject) or a delivery.
type task struct {
	fn      func()
	from    transport.NodeID
	to      transport.NodeID
	payload any
	size    int // encoded payload bytes, for the Bytes counter
}

// mailbox is the dispatcher's inbound queue. Producers (connection
// readers, loopback Sends, After and Inject) append under a short lock
// and wake the dispatcher only when the queue goes from empty to
// non-empty; the dispatcher takes the whole queue at once, runs it in
// FIFO order and hands the drained slice back for the next round. A
// burst of frames read from one socket thus costs one lock and at most
// one wake-up, and the queue holds only what is waiting, not a
// MailboxDepth-slot buffer allocated up front.
type mailbox struct {
	mu     sync.Mutex
	q      []task
	depth  int
	closed bool
	wake   chan struct{} // one slot: a pending wake-up
}

func newMailbox(depth int) *mailbox {
	return &mailbox{depth: depth, wake: make(chan struct{}, 1)}
}

// put appends run to the queue in order. A delivery that finds
// MailboxDepth tasks already waiting is shed; a function never is.
// The shed deliveries are moved to the front of run and returned.
// After close, put discards everything and sheds nothing.
func (m *mailbox) put(run []task) (shed []task) {
	if len(run) == 0 {
		return nil
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	wasEmpty := len(m.q) == 0
	k := 0
	for _, t := range run {
		if t.fn == nil && len(m.q) >= m.depth {
			run[k] = t
			k++
			continue
		}
		m.q = append(m.q, t)
	}
	wake := wasEmpty && len(m.q) > 0
	m.mu.Unlock()
	if wake {
		select {
		case m.wake <- struct{}{}:
		default:
		}
	}
	return run[:k]
}

// take swaps the waiting tasks out for drained, an emptied slice the
// queue reuses, and returns them.
func (m *mailbox) take(drained []task) []task {
	m.mu.Lock()
	q := m.q
	m.q = drained[:0]
	m.mu.Unlock()
	return q
}

// close discards the waiting tasks and makes every later put a no-op.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.q = nil
	m.mu.Unlock()
}
