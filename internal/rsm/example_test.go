package rsm_test

import (
	"fmt"
	"time"

	"catocs/internal/rsm"
	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/wal"
)

// Three replicas under 10% loss take concurrent writes: the causally
// consistent sequencer orders the commands, each replica logs them with
// their global position before applying, and one replica's log alone
// rebuilds its state after a crash.
func ExampleNewGroup() {
	k := sim.NewKernel(11)
	net := transport.NewSimNet(k, transport.LinkConfig{
		BaseDelay: time.Millisecond,
		Jitter:    3 * time.Millisecond,
		LossProb:  0.1, // atomic delivery recovers the losses
	})
	devices := []*wal.Device{wal.NewDevice(), wal.NewDevice(), wal.NewDevice()}
	replicas, err := rsm.NewGroup(net, []transport.NodeID{0, 1, 2}, devices)
	if err != nil {
		panic(err)
	}
	replicas[0].Submit(rsm.Command{Op: "set", Key: "color", Value: "red"})
	replicas[1].Submit(rsm.Command{Op: "set", Key: "color", Value: "blue"})
	replicas[2].Submit(rsm.Command{Op: "set", Key: "size", Value: 42})
	replicas[0].Submit(rsm.Command{Op: "del", Key: "size"})
	k.RunUntil(3 * time.Second)
	for i, r := range replicas {
		r.Member().Close()
		color, _ := r.Get("color")
		_, hasSize := r.Get("size")
		fmt.Printf("replica %d: applied=%d color=%v size-present=%v\n", i, r.Applied(), color, hasSize)
	}
	fmt.Println("converged:", rsm.Converged(replicas))

	fresh, err := rsm.Recover(devices[2])
	if err != nil {
		panic(err)
	}
	color, _ := fresh.Get("color")
	fmt.Printf("recovered from replica 2's log: applied=%d color=%v (log: %d records, %d bytes)\n",
		fresh.Applied(), color, devices[2].Len(), devices[2].Bytes())
	// Output:
	// replica 0: applied=4 color=red size-present=false
	// replica 1: applied=4 color=red size-present=false
	// replica 2: applied=4 color=red size-present=false
	// converged: true
	// recovered from replica 2's log: applied=4 color=red (log: 4 records, 172 bytes)
}
