// Package dist adds real distributed map execution to Slider: worker
// processes serve map tasks over TCP, in messages made of persist's
// checksummed frames (wire.go has the format), and a client-side pool
// implements the runtime's MapRunner hook with round-robin dispatch,
// failure detection, and automatic re-execution of tasks from failed
// workers on the survivors — the task-level fault tolerance model of
// MapReduce that the paper's system inherits from Hadoop.
//
// Because functions cannot travel over the wire, jobs are distributed by
// *name*: both the driver and every worker register the same job factory
// under the same name (the moral equivalent of shipping the job jar in
// Hadoop). Splits and payloads cross the wire in the flat columnar codec;
// record and value types it has no column for travel as gob inside it,
// and custom ones register once with persist.RegisterType.
package dist

import (
	"fmt"
	"sort"
	"sync"

	"slider/internal/mapreduce"
)

// Registry maps job names to factories. A zero Registry is ready to use.
// Registry is safe for concurrent use.
type Registry struct {
	mu   sync.RWMutex
	jobs map[string]func() *mapreduce.Job
}

// defaultRegistry serves RegisterJob / lookupJob.
var defaultRegistry Registry

// Register binds a job factory to a name in this registry.
func (r *Registry) Register(name string, factory func() *mapreduce.Job) error {
	if name == "" || factory == nil {
		return fmt.Errorf("dist: empty job name or nil factory")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.jobs == nil {
		r.jobs = make(map[string]func() *mapreduce.Job)
	}
	if _, dup := r.jobs[name]; dup {
		return fmt.Errorf("dist: job %q already registered", name)
	}
	r.jobs[name] = factory
	return nil
}

// Lookup instantiates the named job.
func (r *Registry) Lookup(name string) (*mapreduce.Job, error) {
	r.mu.RLock()
	factory, ok := r.jobs[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dist: unknown job %q", name)
	}
	job := factory()
	if err := job.Validate(); err != nil {
		return nil, err
	}
	return job, nil
}

// Names returns the registered job names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.jobs))
	for n := range r.jobs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RegisterJob binds a job factory to a name in the process-wide registry
// used by Worker and Pool defaults.
func RegisterJob(name string, factory func() *mapreduce.Job) error {
	return defaultRegistry.Register(name, factory)
}
