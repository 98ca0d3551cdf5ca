package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderWork(t *testing.T) {
	r := NewRecorder()
	r.RecordTask(Task{Phase: PhaseMap, Cost: 100 * time.Millisecond})
	r.RecordTask(Task{Phase: PhaseMap, Cost: 50 * time.Millisecond})
	r.RecordTask(Task{Phase: PhaseReduce, Cost: 30 * time.Millisecond})
	r.RecordTask(Task{Phase: PhaseContraction, Cost: 20 * time.Millisecond})
	if got := r.Work(); got != 200*time.Millisecond {
		t.Fatalf("work = %v", got)
	}
	if got := r.PhaseWork(PhaseMap); got != 150*time.Millisecond {
		t.Fatalf("map work = %v", got)
	}
}

func TestReusedTasksExcludedFromWork(t *testing.T) {
	r := NewRecorder()
	r.RecordTask(Task{Phase: PhaseMap, Cost: time.Second, Reused: true})
	if r.Work() != 0 {
		t.Fatal("reused task counted as work")
	}
	if len(r.Tasks()) != 1 {
		t.Fatal("reused task not in task list")
	}
}

func TestZeroValueRecorder(t *testing.T) {
	var r Recorder
	r.RecordTask(Task{Phase: PhaseMap, Cost: time.Millisecond})
	r.Add(Counters{MapTasks: 1})
	if r.Work() != time.Millisecond || r.Counters().MapTasks != 1 {
		t.Fatal("zero-value recorder broken")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	r := NewRecorder()
	r.RecordTask(Task{Phase: PhaseMap, Cost: time.Millisecond})
	snap := r.Snapshot()
	r.RecordTask(Task{Phase: PhaseMap, Cost: time.Millisecond})
	if snap.Work != time.Millisecond || len(snap.Tasks) != 1 {
		t.Fatal("snapshot reflects later mutations")
	}
}

func TestRecorderConcurrency(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.RecordTask(Task{Phase: PhaseMap, Cost: time.Millisecond})
			r.Add(Counters{CombineCalls: 1})
		}()
	}
	wg.Wait()
	if r.Work() != 50*time.Millisecond || r.Counters().CombineCalls != 50 {
		t.Fatalf("lost updates: work=%v counters=%+v", r.Work(), r.Counters())
	}
}

func TestCountersAccumulate(t *testing.T) {
	r := NewRecorder()
	r.Add(Counters{MapTasks: 1, CombineCalls: 2, WriteTime: 3})
	r.Add(Counters{MapTasks: 4, MapTasksReused: 5})
	c := r.Counters()
	if c.MapTasks != 5 || c.CombineCalls != 2 || c.MapTasksReused != 5 || c.WriteTime != 3 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestMergeReports(t *testing.T) {
	a := Report{
		Work:      time.Second,
		PhaseWork: map[Phase]time.Duration{PhaseMap: time.Second},
		Counters:  Counters{MapTasks: 1},
		Tasks:     []Task{{Phase: PhaseMap}},
	}
	b := Report{
		Work:      2 * time.Second,
		PhaseWork: map[Phase]time.Duration{PhaseMap: time.Second, PhaseReduce: time.Second},
		Counters:  Counters{MapTasks: 2, ReduceCalls: 3},
		Tasks:     []Task{{Phase: PhaseReduce}},
	}
	m := MergeReports(a, b)
	if m.Work != 3*time.Second {
		t.Fatalf("work = %v", m.Work)
	}
	if m.PhaseWork[PhaseMap] != 2*time.Second || m.PhaseWork[PhaseReduce] != time.Second {
		t.Fatalf("phase work = %v", m.PhaseWork)
	}
	if m.Counters.MapTasks != 3 || m.Counters.ReduceCalls != 3 {
		t.Fatalf("counters = %+v", m.Counters)
	}
	if len(m.Tasks) != 2 {
		t.Fatalf("tasks = %d", len(m.Tasks))
	}
}

func TestSpeedup(t *testing.T) {
	if s := Speedup(10*time.Second, 2*time.Second); s != 5 {
		t.Fatalf("speedup = %f", s)
	}
	if s := Speedup(time.Second, 0); s != 0 {
		t.Fatalf("zero-denominator speedup = %f", s)
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseMap.String() != "map" || PhaseContraction.String() != "contraction" || PhaseReduce.String() != "reduce" {
		t.Fatal("phase names wrong")
	}
	if !strings.Contains(Phase(99).String(), "99") {
		t.Fatal("unknown phase formatting")
	}
}
