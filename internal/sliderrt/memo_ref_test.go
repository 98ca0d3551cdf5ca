package sliderrt

import (
	"testing"

	"slider/internal/apps"
	"slider/internal/mapreduce"
	"slider/internal/workload"
)

// TestMemoEntriesCarrySizesNotValues pins what the memoization layer holds
// of a run: every "map:" and "part:" entry has its accounted size,
// placement and interval, and no value — on wordcount and on K-Means, whose
// struct values no codec could encode here (nothing registers them). The
// accounted totals are the constants measured while the entries still held
// encoded payloads; a failed home node and replicas still degrade the
// state read to a counted recompute, and the slide succeeds.
func TestMemoEntriesCarrySizesNotValues(t *testing.T) {
	points := workload.NewPoints(workload.PointsConfig{Seed: 5, PointsPerSplit: 40, Dim: 6})
	cases := []struct {
		name       string
		job        *mapreduce.Job
		gen        func(lo, hi int) []mapreduce.Split
		memoBytes  int64
		spaceBytes int64
	}{
		{"wordcount", wordCountJob(), func(lo, hi int) []mapreduce.Split { return genSplits(lo, hi-lo, 4, 7) }, 801, 2184},
		{"kmeans", apps.KMeans(2, 8, 6, 3), points.Range, 4158, 11484},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			memoCfg := testMemoConfig()
			memoCfg.Replicas = 2
			rt, err := New(tc.job, Config{Mode: Fixed, BucketSplits: 1, WindowBuckets: 6, Memo: memoCfg})
			if err != nil {
				t.Fatal(err)
			}
			res, err := rt.Initial(tc.gen(0, 6))
			if err != nil {
				t.Fatal(err)
			}
			var newest mapreduce.Split
			for i := 6; i < 14; i++ {
				add := tc.gen(i, i+1)
				newest = add[0]
				if res, err = rt.Advance(1, add); err != nil {
					t.Fatalf("advance %d: %v", i-5, err)
				}
			}
			store := rt.Store()
			for _, key := range []string{"part:0", "map:" + newest.ID} {
				v, err := store.Get(key, store.HomeNode(key))
				if err != nil {
					t.Fatalf("Get(%q): %v", key, err)
				}
				if v != nil {
					t.Errorf("entry %q holds a %T, want no value", key, v)
				}
			}
			if got := store.Stats().Bytes; got != tc.memoBytes {
				t.Errorf("memo store accounts %d bytes, pinned %d", got, tc.memoBytes)
			}
			if res.SpaceBytes != tc.spaceBytes {
				t.Errorf("SpaceBytes %d, pinned %d", res.SpaceBytes, tc.spaceBytes)
			}

			home := store.HomeNode("part:0")
			for r := 0; r <= memoCfg.Replicas; r++ {
				store.FailNode((home + r) % memoCfg.Nodes)
			}
			if _, err := rt.Advance(1, tc.gen(14, 15)); err != nil {
				t.Fatalf("advance with part:0 unreadable: %v", err)
			}
			if rt.FaultStats().MemoRecomputes == 0 {
				t.Error("unreadable part:0 did not count a recompute")
			}
		})
	}
}
