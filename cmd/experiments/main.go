// Command experiments runs E1–E21, E24 and the total-order ablation
// and prints every table. With -md it emits the tables in
// the Markdown layout used by EXPERIMENTS.md. With -net it also runs
// E22, the real-network fleet: unlike everything else here it spawns
// OS processes (cmd/node, cmd/loadgen) and measures wall-clock time,
// so it is opt-in and not seed-deterministic.
//
// Usage:
//
//	experiments [-seed 1] [-quick] [-md] [-net]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"catocs/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	quick := flag.Bool("quick", false, "smaller parameterizations (CI-sized)")
	md := flag.Bool("md", false, "emit Markdown (EXPERIMENTS.md layout)")
	netFleet := flag.Bool("net", false, "also run E22: real OS-process fleet over TCP (spawns processes)")
	flag.Parse()

	trials, sizes, msgs := 50, []int{4, 8, 16, 24}, 40
	e8procs := []int{4, 8}
	e16sizes := []int{8, 32, 128, 512}
	e17sizes := []int{8, 32, 128}
	e18episodes, e18n := 50, 6
	e19casts, e19episodes := 150, 100
	e20sizes, e20ks, e20msgs := []int{8, 32, 128}, []int{1, 2, 4, 8}, 20
	e21sizes, e21msgs := []int{8, 32}, 30
	e24sizes := experiments.E24Sizes
	if *quick {
		trials, sizes, msgs = 10, []int{4, 8}, 20
		e8procs = []int{4}
		e16sizes = []int{8, 32}
		e17sizes = []int{8, 32}
		e18episodes, e18n = 5, 5
		e19casts, e19episodes = 60, 10
		e20sizes, e20ks, e20msgs = []int{8, 32}, []int{1, 2}, 8
		e21sizes, e21msgs = []int{8}, 10
		e24sizes = []int{8, 32}
	}

	tables := []*experiments.Table{
		experiments.TableE1(trials),
		experiments.TableE2(trials, *seed),
		experiments.TableE3(trials, *seed+1000),
		experiments.TableE4(trials/2, *seed+2000),
		experiments.TableE5(sizes, msgs, *seed),
		experiments.TableE5Piggyback(sizes, msgs, *seed),
		experiments.TableE5Header([]int{4, 16, 64}, msgs/2, 1_000_000, *seed),
		experiments.TableE6(sizes, msgs, 0.05, *seed),
		experiments.TableE6Partition([]int{1, 2, 3, 4}, 4, msgs, *seed),
		experiments.TableE6Traffic(8, msgs, *seed),
		experiments.TableE7(sizes, *seed),
		experiments.TableE7Join(sizes, *seed),
		experiments.TableE8(e8procs, 100, *seed),
		experiments.TableE9(3, 30, *seed),
		experiments.TableE10([]int{3, 6, 9}, 4, *seed),
		experiments.TableE11(*seed),
		experiments.TableE12([]float64{0, 0.05, 0.15}, *seed),
		experiments.TableE13(sizes, 48, *seed),
		experiments.TableE14([]int{8, 16, 32}, 40, *seed),
		experiments.TableE15([]int{4, 8, 16}, 30, *seed),
		experiments.TableE16(e16sizes, 4, *seed),
		experiments.TableE17(e17sizes, msgs/2, *seed),
		experiments.TableE18(e18episodes, e18n, 30, *seed),
		experiments.TableE19(5, e19casts, e19episodes, *seed),
		experiments.TableE20(e20sizes, e20ks, e20msgs, *seed),
		experiments.TableE21(e21sizes, e21msgs, *seed),
		experiments.TableAblationTotal(sizes, msgs/2, *seed),
		experiments.TableE24(e24sizes, *seed),
	}

	if *netFleet {
		t, err := runE22(*quick)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: E22:", err)
			os.Exit(1)
		}
		tables = append(tables, t)
	}

	for _, t := range tables {
		if *md {
			fmt.Println(t.RenderMarkdown())
		} else {
			fmt.Println(t.Render())
		}
	}
}

// runE22 builds the fleet binaries and runs the real-network arms: a
// traced ordering-audit fleet per substrate, then an untraced
// throughput fleet at full client count.
func runE22(quick bool) (*experiments.Table, error) {
	bin, err := os.MkdirTemp("", "catocs-net-bin")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(bin)
	if err := experiments.BuildNetBinaries(bin); err != nil {
		return nil, err
	}
	auditClients, auditRate, auditDur := 5000, 500.0, 4*time.Second
	loadNodes, loadClients, loadRate, loadDur := 5, 100_000, 1200.0, 10*time.Second
	if quick {
		auditClients, auditRate, auditDur = 1000, 300, 1500*time.Millisecond
		loadNodes, loadClients, loadRate, loadDur = 3, 10_000, 1500, 3*time.Second
	}
	var pts []experiments.E22Point
	for _, substrate := range []string{"cbcast", "abcast"} {
		work, err := os.MkdirTemp("", "catocs-net-run")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(work)
		pt, err := experiments.RunE22(experiments.E22Config{
			Substrate: substrate, Nodes: 3, Workers: 1,
			Clients: auditClients, Rate: auditRate, MsgSize: 64,
			Duration: auditDur, Trace: true, BinDir: bin, WorkDir: work,
		})
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, "E22:", pt.JSON())
		pts = append(pts, pt)
	}
	work, err := os.MkdirTemp("", "catocs-net-run")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	pt, err := experiments.RunE22(experiments.E22Config{
		Substrate: "abcast", Nodes: loadNodes, Workers: 2,
		Clients: loadClients, Rate: loadRate, MsgSize: 64,
		Duration: loadDur, BinDir: bin, WorkDir: work,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "E22:", pt.JSON())
	pts = append(pts, pt)
	return experiments.TableE22From(pts), nil
}
