package catocs

// Micro-benchmarks of the per-message machinery §3.4 charges CATOCS
// with: "ordering information is added each transmission and checked
// on each reception. This overhead will be an increasingly significant
// cost as networks go to ever higher transfer rates." These quantify
// the per-operation cost of the clocks and buffers at several group
// sizes.

import (
	"fmt"
	"testing"
	"time"

	"catocs/internal/multicast"
	"catocs/internal/sim"
	"catocs/internal/stability"
	"catocs/internal/state"
	"catocs/internal/transport"
	"catocs/internal/vclock"
	"catocs/internal/wire"
)

func benchSizes() []int { return []int{4, 16, 64, 256} }

func BenchmarkVCCompare(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x, y := vclock.New(n), vclock.New(n)
			for i := 0; i < n; i++ {
				x.Set(vclock.ProcessID(i), uint64(i))
				y.Set(vclock.ProcessID(i), uint64(i%3))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = x.Compare(y)
			}
		})
	}
}

func BenchmarkVCDeliverableCheck(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			recv := vclock.New(n)
			msg := recv.Clone()
			msg.Set(0, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = recv.Deliverable(msg, 0)
			}
		})
	}
}

func BenchmarkVCMerge(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x, y := vclock.New(n), vclock.New(n)
			for i := 0; i < n; i++ {
				y.Set(vclock.ProcessID(i), uint64(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.Merge(y)
			}
		})
	}
}

func BenchmarkVCStampClone(b *testing.B) {
	// The per-send cost: clone the delivered clock to stamp a message.
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			v := vclock.New(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = v.Clone()
			}
		})
	}
}

// The delta-clock family: the per-message work the sparse wire
// encoding replaces the O(N) clock scan and copy with. A cast touches
// its own component plus however many concurrent writers advanced, so
// the deltas here carry two entries regardless of n.
func BenchmarkVCDeltaDiffFrom(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			prev, cur := vclock.New(n), vclock.New(n)
			for i := 0; i < n; i++ {
				prev.Set(vclock.ProcessID(i), uint64(i))
				cur.Set(vclock.ProcessID(i), uint64(i))
			}
			cur.Set(0, 100)
			cur.Set(vclock.ProcessID(n-1), 200)
			dst := make([]vclock.DeltaEntry, 0, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = cur.DiffFrom(prev, dst[:0])
			}
		})
	}
}

func BenchmarkVCDeltaApply(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			v := vclock.New(n)
			delta := []vclock.DeltaEntry{{Idx: 0, Val: 7}, {Idx: int32(n - 1), Val: 9}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = v.ApplyDelta(delta)
			}
		})
	}
}

func BenchmarkVCDeltaDeliverableCheck(b *testing.B) {
	// The sparse counterpart of BenchmarkVCDeliverableCheck: O(delta)
	// instead of O(n), so the n=256 row should look like the n=4 row.
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			recv := vclock.New(n)
			delta := []vclock.DeltaEntry{{Idx: 0, Val: 1}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = recv.DeliverableDelta(0, 1, delta)
			}
		})
	}
}

// BenchmarkWireEncodeDataMsg measures the append-style encode of a
// stamped data message into a reused buffer — the tcpnet send path.
// The acceptance bar is 0 allocs/op: all growth happens on the first
// iteration and the buffer is recycled thereafter.
func BenchmarkWireEncodeDataMsg(b *testing.B) {
	for _, n := range []int{4, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			msg := &multicast.DataMsg{
				Group:       "bench",
				Epoch:       3,
				Sender:      1,
				Seq:         42,
				VC:          vclock.New(n),
				SentAt:      5 * time.Millisecond,
				PayloadSize: 64,
			}
			msg.VC.Set(1, 42)
			buf := make([]byte, 0, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, out, err := wire.MarshalAppend(buf[:0], msg)
				if err != nil {
					b.Fatal(err)
				}
				buf = out[:0]
			}
		})
	}
}

// BenchmarkWireDecodeDataMsg measures the decode of a delta-stamped
// data message as an atomic-mode cast puts it on the wire: a sequence
// around 10^6, a send time around 30 s, a two-entry clock delta, the
// piggybacked stability clock and a 64 B payload — the tcpnet receive
// path. The payload aliases the frame, so it is not among the
// allocations.
func BenchmarkWireDecodeDataMsg(b *testing.B) {
	for _, n := range []int{3, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			msg := &multicast.DataMsg{
				Group:       "bench",
				Epoch:       3,
				Sender:      1,
				Seq:         1_000_042,
				SentAt:      30*time.Second + 123*time.Microsecond,
				VCDelta:     []vclock.DeltaEntry{{Idx: 0, Val: 999_871}, {Idx: 1, Val: 1_000_042}},
				DeliveredVC: vclock.New(n),
				Payload:     make([]byte, 64),
				PayloadSize: 64,
			}
			for i := 0; i < n; i++ {
				msg.DeliveredVC.Set(vclock.ProcessID(i), uint64(999_000+i))
			}
			kind, buf, err := wire.Marshal(msg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := wire.Unmarshal(kind, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStabilityObserveAck(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tr := stability.New(n)
			for s := 0; s < n; s++ {
				for q := uint64(1); q <= 4; q++ {
					tr.Buffer(stability.Key{Sender: vclock.ProcessID(s), Seq: q}, q, 64)
				}
			}
			ack := vclock.New(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.ObserveAck(vclock.ProcessID(i%n), ack)
			}
		})
	}
}

func BenchmarkMatrixMinClock(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := vclock.NewMatrix(n)
			for i := 0; i < n; i++ {
				v := vclock.New(n)
				v.Set(vclock.ProcessID(i), uint64(i))
				m.Update(vclock.ProcessID(i), v)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m.MinClock()
			}
		})
	}
}

func BenchmarkStateReorderer(b *testing.B) {
	// The state-level alternative's per-message cost, for contrast:
	// one map insert and a drain check.
	r := state.NewReorderer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Submit(uint64(i+1), i)
	}
}

func BenchmarkStateCacheApply(b *testing.B) {
	c := state.NewCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Apply(state.Update{Object: "obj", Version: uint64(i + 1), Value: i})
	}
}

func BenchmarkStoreVersionedPut(b *testing.B) {
	s := state.NewStore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put("key", i)
	}
}

// Micro-benchmarks of the protocol hot paths, for the §3.4 point that
// CATOCS "imposes overhead on every message transmission and
// reception".

func BenchmarkMulticastThroughputUnordered(b *testing.B) { benchThroughput(b, Unordered) }
func BenchmarkMulticastThroughputFIFO(b *testing.B)      { benchThroughput(b, FIFO) }
func BenchmarkMulticastThroughputCausal(b *testing.B)    { benchThroughput(b, Causal) }
func BenchmarkMulticastThroughputTotalSeq(b *testing.B)  { benchThroughput(b, TotalSeq) }

// The chain stamp beside the period-1 Causal above: a non-atomic group
// sends the full clock on every cast unless told otherwise, which is
// safe here because the bench link is lossless and FIFO.
func BenchmarkMulticastThroughputCausalDelta(b *testing.B) {
	benchThroughputCfg(b, GroupConfig{Group: "bench", Ordering: Causal, VCRefreshEvery: 32})
}

func benchThroughput(b *testing.B, ord Ordering) {
	benchThroughputCfg(b, GroupConfig{Group: "bench", Ordering: ord})
}

func benchThroughputCfg(b *testing.B, cfg GroupConfig) {
	sim := NewSimulation(1, LinkConfig{BaseDelay: time.Millisecond})
	nodes := []NodeID{0, 1, 2, 3}
	delivered := 0
	members := NewGroup(sim.Mux, nodes, cfg,
		func(ProcessID) DeliverFunc {
			return func(Delivered) { delivered++ }
		})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		members[i%4].Multicast(i, 16)
		if i%256 == 255 {
			sim.Run() // drain periodically to bound queue growth
		}
	}
	sim.Run()
	b.ReportMetric(float64(delivered)/float64(b.N), "deliveries/msg")
}

// timerNet is a transport.Network that drops every send and keeps the
// latest callback scheduled at each delay, so a benchmark can fire one
// of a member's timers by hand.
type timerNet struct {
	timers map[time.Duration]func()
}

func (timerNet) Register(transport.NodeID, transport.Handler) {}
func (timerNet) Send(_, _ transport.NodeID, _ any)            {}
func (timerNet) Now() time.Duration                           { return 0 }
func (n timerNet) After(d time.Duration, f func())            { n.timers[d] = f }

const (
	backlogAck  = 20 * time.Millisecond
	backlogNack = 25 * time.Millisecond
)

// backlogMember is rank 1 of a 32-member atomic causal group holding
// 300 messages behind 4 gaps: four writers whose first cast never
// arrived and whose next 75 did — the holdback the lossy N=32 sim
// workload produces at its peak.
func backlogMember() (*multicast.Member, timerNet) {
	const n = 32
	net := timerNet{timers: make(map[time.Duration]func())}
	nodes := make([]transport.NodeID, n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
	}
	m := multicast.NewMember(net, nodes, 1, multicast.Config{
		Group: "bench", Ordering: multicast.Causal, Atomic: true,
		AckInterval: backlogAck, NackDelay: backlogNack,
	}, func(multicast.Delivered) {})
	for w := vclock.ProcessID(0); w < n; w += 8 {
		for seq := uint64(2); seq <= 76; seq++ {
			vc := vclock.New(n)
			vc.Set(w, seq)
			m.Handle(nodes[w], &multicast.DataMsg{Group: "bench", Sender: w, Seq: seq, VC: vc, PayloadSize: 64})
		}
	}
	if m.PendingCount() != 300 {
		panic(fmt.Sprintf("backlog holds %d messages, want 300", m.PendingCount()))
	}
	return m, net
}

// BenchmarkOnAckBacklog is one peer's stability ack arriving at a
// member with a loss backlog: the per-ack cost of gap tracking, paid 31
// times per ack interval at N=32.
func BenchmarkOnAckBacklog(b *testing.B) {
	m, _ := backlogMember()
	acks := make([]*multicast.AckMsg, m.GroupSize())
	for p := range acks {
		acks[p] = &multicast.AckMsg{Group: "bench", From: vclock.ProcessID(p), Delivered: vclock.New(len(acks))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := 2 + i%30
		m.Handle(transport.NodeID(p), acks[p])
	}
}

// BenchmarkKernelEvent is the simulator kernel alone in the bench
// world's shape: a standing queue of 10 000 events (the sim workloads
// peak near that), each fired event scheduling one successor with
// AfterCall 5 ms + U[0, 8 ms) later, like a hop on the bench's jittered
// links. One op is one fired event.
func BenchmarkKernelEvent(b *testing.B) {
	k := sim.NewKernel(1)
	var hop func(any)
	hop = func(arg any) {
		k.AfterCall(5*time.Millisecond+time.Duration(k.Rand().Int63n(int64(8*time.Millisecond))), hop, arg)
	}
	for i := 0; i < 10_000; i++ {
		k.AtCall(time.Duration(k.Rand().Int63n(int64(13*time.Millisecond))), hop, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// BenchmarkFireNackBacklog is one firing of the NACK timer over the
// same backlog: enumerate the 4 gaps and request them.
func BenchmarkFireNackBacklog(b *testing.B) {
	_, net := backlogMember()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.timers[backlogNack]() // fireNack re-arms itself while gaps remain
	}
}

// BenchmarkOrderNackBacklog is the sequencer of a 32-member atomic
// TotalSeq group, holding 8 000 unstable assignments from four writers,
// answering one OrderNack that wants 32 ids: 16 it assigned, spread
// over the log, and 16 it never saw. The cost is the id -> position
// lookup, which the never-assigned half drives to its worst case.
func BenchmarkOrderNackBacklog(b *testing.B) {
	const n, writers, per = 32, 4, 2000
	net := timerNet{timers: make(map[time.Duration]func())}
	nodes := make([]transport.NodeID, n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
	}
	m := multicast.NewMember(net, nodes, 0, multicast.Config{
		Group: "bench", Ordering: multicast.TotalSeq, Atomic: true,
	}, func(multicast.Delivered) {})
	for seq := uint64(1); seq <= per; seq++ {
		for w := 1; w <= writers; w++ {
			m.Handle(nodes[w], &multicast.DataMsg{Group: "bench", Sender: vclock.ProcessID(w), Seq: seq, PayloadSize: 64})
		}
	}
	nack := &multicast.OrderNack{Group: "bench", From: 1, FromGlobal: writers*per + 1}
	for i := uint64(0); i < 16; i++ {
		w := vclock.ProcessID(1 + i%writers)
		nack.Want = append(nack.Want,
			multicast.MsgID{Sender: w, Seq: 1 + i*per/16},
			multicast.MsgID{Sender: w, Seq: per + 1 + i})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Handle(nodes[1], nack)
	}
}
