package gmac

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/oplog"
	"repro/internal/sim"
	"repro/machine"
)

// laneOp is the part of a recorded op that must not depend on goroutine
// scheduling when the op was made on a lane.
type laneOp struct {
	Kind oplog.Kind
	Obj  uint32
	Addr Ptr
	Size int64
	At   sim.Time
}

// laneStormRun is one run of laneStorm: each lane's op subsequence, keyed
// by device and lane, and the storm's virtual duration.
type laneStormRun struct {
	ops  map[string][]laneOp
	virt sim.Time
}

// laneStorm runs a two-worker storm shaped like gmacbench -hostthreads 2:
// worker i writes every block of its own object on device i, calls its own
// kernel (release, launch, acquire), and reads every block back, for a few
// rounds, all through its InLanes lane. It fails the test if any of that
// work charged the shared timeline.
func laneStorm(t *testing.T) laneStormRun {
	t.Helper()
	const (
		workers   = 2
		rounds    = 3
		blockSize = 64 << 10
		blocks    = 16
	)
	cfg := machine.DualGPUTestbedConfig(true)
	for i := range cfg.Accelerators {
		cfg.Accelerators[i].MemSize = 16 << 20
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := NewMultiContext(m, Config{Protocol: RollingUpdate, BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	kernels := make([]string, workers)
	objs := make([]Ptr, workers)
	for i := range objs {
		name := fmt.Sprintf("touch%d", i)
		mc.Register(func() *Kernel {
			return &Kernel{
				Name: name,
				Run: func(dev *DeviceMemory, args []uint64) {
					p := Ptr(args[0])
					for b := Ptr(0); b < blocks; b++ {
						dev.SetUint32(p+b*blockSize, dev.Uint32(p+b*blockSize)+1)
					}
				},
				Cost: func([]uint64) (float64, int64) { return blocks, blocks * blockSize },
			}
		})
		p, err := mc.Alloc(blocks*blockSize, OnDevice(i), ForKernels(name))
		if err != nil {
			t.Fatal(err)
		}
		kernels[i], objs[i] = name, p
	}
	for d := 0; d < mc.Devices(); d++ {
		mc.Manager(d).EnableRecorder(1 << 14)
	}

	virt0 := m.Elapsed()
	errs := make([]error, workers)
	// Every charge a worker makes lands on its lane: the shared timeline
	// stays at virt0 until InLanes merges the lanes.
	mc.InLanes(workers, func(i int, l *Lane) {
		if l.ID() != uint32(i+1) {
			errs[i] = fmt.Errorf("worker %d on lane %d, want %d", i, l.ID(), i+1)
			return
		}
		one, buf := []byte{1}, make([]byte, 1)
		for r := 0; r < rounds; r++ {
			for b := Ptr(0); b < blocks; b++ {
				if err := l.HostWrite(objs[i]+b*blockSize+4, one); err != nil {
					errs[i] = err
					return
				}
			}
			if err := l.Call(kernels[i], []uint64{uint64(objs[i])}); err != nil {
				errs[i] = err
				return
			}
			for b := Ptr(0); b < blocks; b++ {
				if err := l.HostRead(objs[i]+b*blockSize, buf); err != nil {
					errs[i] = err
					return
				}
			}
		}
		if now := m.Clock.Now(); now != virt0 {
			errs[i] = fmt.Errorf("worker %d: shared clock moved from %v to %v inside the lanes", i, virt0, now)
		}
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	run := laneStormRun{ops: map[string][]laneOp{}, virt: m.Elapsed() - virt0}
	for d := 0; d < mc.Devices(); d++ {
		log, err := mc.Manager(d).FinishOpLog("lanes")
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range log.Ops {
			if op.Lane == 0 {
				continue // setup on the shared timeline
			}
			key := fmt.Sprintf("device %d lane %d", d, op.Lane)
			run.ops[key] = append(run.ops[key], laneOp{op.Kind, op.Obj, op.Addr, op.Size, op.At})
		}
	}
	return run
}

// TestInLanesDeterministic: lane identities, each lane's op stream and the
// final virtual time are pure functions of the work, not of goroutine
// scheduling. Worker i must run on lane i+1 every time, so its ops land
// on device i's manager under that lane, with identical kinds, objects,
// addresses, sizes and virtual timestamps in every run, at GOMAXPROCS 1
// and 2 alike.
func TestInLanesDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want laneStormRun
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 20; run++ {
			got := laneStorm(t)
			if want.ops == nil {
				want = got
				for i := 0; i < 2; i++ {
					key := fmt.Sprintf("device %d lane %d", i, i+1)
					if len(want.ops[key]) == 0 {
						t.Fatalf("no ops recorded under %s (have %d streams)", key, len(want.ops))
					}
				}
				if len(want.ops) != 2 {
					t.Fatalf("ops recorded under %d (device, lane) pairs, want 2", len(want.ops))
				}
				continue
			}
			if got.virt != want.virt {
				t.Fatalf("GOMAXPROCS=%d run %d: virtual time %v, want %v", procs, run, got.virt, want.virt)
			}
			if !reflect.DeepEqual(got.ops, want.ops) {
				for key, ops := range want.ops {
					if !reflect.DeepEqual(got.ops[key], ops) {
						t.Fatalf("GOMAXPROCS=%d run %d: %s recorded %d ops differing from the first run's %d",
							procs, run, key, len(got.ops[key]), len(ops))
					}
				}
				t.Fatalf("GOMAXPROCS=%d run %d: ops recorded under %d (device, lane) pairs, want %d",
					procs, run, len(got.ops), len(want.ops))
			}
		}
	}
}
