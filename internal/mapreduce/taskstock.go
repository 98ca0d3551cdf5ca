package mapreduce

import "sync"

// taskStock is the process's one stock of task-output storage: the entry
// slices of the map outputs a bucket fold consumed, and of those a window
// evicted as buckets, for the next map outputs to be decoded or cut into.
// Its producers run on a pool's connection goroutines and in executor tasks,
// and its releases in every partition's contraction and upkeep, so it is one
// locked list and not one a partition.
var taskStock struct {
	sync.Mutex
	FreeList
}

// TakeTaskPayload returns a payload of n entries, all zero, for a map task's
// output to be written in (RunMapTask's cut, the decode of a map result):
// the smallest slice of the task stock whose capacity is between n and 2n,
// else a fresh slice of exactly n entries. It returns nil for n ≤ 0.
func TakeTaskPayload(n int) Payload {
	if n <= 0 {
		return nil
	}
	taskStock.Lock()
	b := taskStock.take(n)
	taskStock.Unlock()
	if b == nil {
		return make(Payload, n)
	}
	return b[:n]
}

// TaskStockStats returns the task stock's bookkeeping: takes it served and
// takes that allocated, and what it holds now.
func TaskStockStats() FreeListStats {
	taskStock.Lock()
	defer taskStock.Unlock()
	return taskStock.Stats()
}

// ReleaseTaskPayload hands the task stock a map output's entry slice that
// nothing reads any more — one that a bucket fold merged into another
// payload, or one that was a bucket on its own and has left the window. A
// lone output handed through uncopied is the bucket until then, and is not
// released while the window holds it; afterwards it is a dead map output like
// any other. Nothing beyond its length may be set, and no one else may hold
// it. Its keys are not released: they are substrings of the task's key arena,
// which the bucket's keys share. Like any FreeList, the stock holds at most
// FreeListBuffers slices, the largest when full; unlike one, it is safe for
// concurrent use.
func ReleaseTaskPayload(p Payload) {
	taskStock.Lock()
	taskStock.Put(p)
	taskStock.Unlock()
}
