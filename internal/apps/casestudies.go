package apps

import (
	"fmt"
	"sort"
	"strconv"

	"slider/internal/mapreduce"
	"slider/internal/workload"
)

// Post is one (user, time) URL posting inside a PostList.
type Post struct {
	// User posted the URL.
	User int32
	// Time is the posting timestamp.
	Time int64
}

// PostList is a time-sorted list of postings of one URL. Merging two
// lists is a sorted merge — associative and commutative (ties broken by
// user ID), so it works with every contraction tree.
type PostList struct {
	// Posts is sorted by (Time, User).
	Posts []Post
}

var (
	_ mapreduce.Sizer         = (*PostList)(nil)
	_ mapreduce.Fingerprinter = (*PostList)(nil)
)

// postLess orders posts by (Time, User).
func postLess(a, b Post) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.User < b.User
}

// Merge returns a fresh sorted union of the two lists.
func (l *PostList) Merge(other *PostList) *PostList {
	return mergePostLists([]mapreduce.Value{l, other})
}

// mergePostLists is TwitterPropagation's Combine, and the list its Reduce
// reads: the sorted union of the lists in values, in one fresh list. Equal
// posts are identical, so it is the list a chain of Merge calls builds;
// merging halves (unionPosts) copies a post once a halving, not once a
// value. The inputs are not modified; a lone list is returned as it is.
func mergePostLists(values []mapreduce.Value) *PostList {
	if len(values) == 1 {
		return values[0].(*PostList)
	}
	n := countPosts(values)
	var scratch []Post
	if len(values) > 2 {
		scratch = make([]Post, n)
	}
	out := &PostList{Posts: make([]Post, n)}
	unionPosts(out.Posts, scratch, values)
	return out
}

func countPosts(values []mapreduce.Value) int {
	n := 0
	for _, v := range values {
		n += len(v.(*PostList).Posts)
	}
	return n
}

// unionPosts writes the sorted union of the lists in values into dst; it
// overwrites scratch, as long as dst, when there are more than two.
func unionPosts(dst, scratch []Post, values []mapreduce.Value) {
	switch len(values) {
	case 1:
		copy(dst, values[0].(*PostList).Posts)
		return
	case 2:
		mergePosts(dst, values[0].(*PostList).Posts, values[1].(*PostList).Posts)
		return
	}
	h := len(values) / 2
	n := countPosts(values[:h])
	unionPosts(scratch[:n], dst[:n], values[:h])
	unionPosts(scratch[n:], dst[n:], values[h:])
	mergePosts(dst, scratch[:n], scratch[n:])
}

// mergePosts writes a and b, each sorted, merged by (Time, User) into dst,
// which holds len(a)+len(b) posts.
func mergePosts(dst, a, b []Post) {
	i, j := 0, 0
	for n := range dst {
		if j == len(b) || i < len(a) && postLess(a[i], b[j]) {
			dst[n] = a[i]
			i++
		} else {
			dst[n] = b[j]
			j++
		}
	}
}

// SizeBytes implements mapreduce.Sizer.
func (l *PostList) SizeBytes() int64 { return int64(16*len(l.Posts)) + 24 }

// Fingerprint implements mapreduce.Fingerprinter.
func (l *PostList) Fingerprint() uint64 {
	h := fnvOffset
	for _, p := range l.Posts {
		h = fnvMix(h, uint64(p.Time)<<32^uint64(uint32(p.User)))
	}
	return h
}

// PropStats is the per-URL output of the propagation-tree analysis:
// Krackhardt-style hierarchy statistics of the information propagation
// tree (§8.1).
type PropStats struct {
	// Posts is the number of postings of the URL in the window.
	Posts int
	// Edges is the number of spreader→receiver edges.
	Edges int
	// Roots is the number of independent introduction points.
	Roots int
	// Depth is the maximum propagation-chain depth.
	Depth int
}

// TwitterPropagation builds information propagation trees for URLs posted
// on Twitter (§8.1): a receiver who posts a URL after an account they
// follow posted it is attached under the earliest such spreader.
func TwitterPropagation(partitions int, graph *workload.FollowGraph) *mapreduce.Job {
	return &mapreduce.Job{
		Name:       "twitter-propagation",
		Partitions: partitions,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			tw, ok := rec.(workload.Tweet)
			if !ok {
				return fmt.Errorf("twitter: record %T is not a Tweet", rec)
			}
			emit("url"+strconv.Itoa(int(tw.URL)), &PostList{Posts: []Post{{User: tw.User, Time: tw.Time}}})
			return nil
		},
		Combine: func(_ string, values []mapreduce.Value) mapreduce.Value {
			return mergePostLists(values)
		},
		Reduce: func(_ string, values []mapreduce.Value) mapreduce.Value {
			return buildPropagationTree(graph, mergePostLists(values))
		},
		Commutative: true,
	}
}

// buildPropagationTree attaches each poster to its earliest-posting
// followee and extracts tree statistics.
func buildPropagationTree(graph *workload.FollowGraph, posts *PostList) PropStats {
	stats := PropStats{Posts: len(posts.Posts)}
	depth := make(map[int32]int, len(posts.Posts))
	seenAt := make([]Post, 0, len(posts.Posts))
	for _, p := range posts.Posts {
		if _, dup := depth[p.User]; dup {
			continue
		}
		parentDepth := -1
		for _, earlier := range seenAt {
			if earlier.Time >= p.Time {
				break
			}
			if graph.Follows(p.User, earlier.User) {
				parentDepth = depth[earlier.User]
				break // earliest spreader wins
			}
		}
		if parentDepth >= 0 {
			stats.Edges++
			depth[p.User] = parentDepth + 1
		} else {
			stats.Roots++
			depth[p.User] = 0
		}
		if d := depth[p.User]; d > stats.Depth {
			stats.Depth = d
		}
		seenAt = append(seenAt, p)
	}
	return stats
}

// RTTHist is a millisecond-bucketed histogram of per-run minimum RTTs for
// one measurement server (§8.2). Histogram union is associative and
// commutative.
type RTTHist struct {
	// Buckets maps ms buckets to run counts.
	Buckets map[int32]int64
}

var (
	_ mapreduce.Sizer         = (*RTTHist)(nil)
	_ mapreduce.Fingerprinter = (*RTTHist)(nil)
)

// Merge returns a fresh histogram union.
func (h *RTTHist) Merge(other *RTTHist) *RTTHist {
	return mergeRTTHists([]mapreduce.Value{h, other})
}

// mergeRTTHists is GlasnostMonitor's Combine, and the histogram its Reduce
// reads: the union of the histograms in values, counts added, in one fresh
// map. The map starts at the largest value's size and grows to the
// union's: the values' sizes summed may be many times the union, and a
// Combine's histogram is kept in the window's state. The inputs are not
// modified; a lone histogram is returned as it is.
func mergeRTTHists(values []mapreduce.Value) *RTTHist {
	if len(values) == 1 {
		return values[0].(*RTTHist)
	}
	n := 0
	for _, v := range values {
		n = max(n, len(v.(*RTTHist).Buckets))
	}
	out := &RTTHist{Buckets: make(map[int32]int64, n)}
	for _, v := range values {
		for b, c := range v.(*RTTHist).Buckets {
			out.Buckets[b] += c
		}
	}
	return out
}

// Median returns the histogram's median bucket value in ms.
func (h *RTTHist) Median() float64 {
	var total int64
	keys := make([]int32, 0, len(h.Buckets))
	for b, c := range h.Buckets {
		keys = append(keys, b)
		total += c
	}
	if total == 0 {
		return 0
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var cum int64
	for _, b := range keys {
		cum += h.Buckets[b]
		if cum*2 >= total {
			return float64(b)
		}
	}
	return float64(keys[len(keys)-1])
}

// SizeBytes implements mapreduce.Sizer.
func (h *RTTHist) SizeBytes() int64 { return int64(16*len(h.Buckets)) + 48 }

// Fingerprint implements mapreduce.Fingerprinter.
func (h *RTTHist) Fingerprint() uint64 {
	keys := make([]int32, 0, len(h.Buckets))
	for b := range h.Buckets {
		keys = append(keys, b)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	acc := fnvOffset
	for _, b := range keys {
		acc = fnvMix(acc, uint64(uint32(b))<<32^uint64(h.Buckets[b]))
	}
	return acc
}

// GlasnostMonitor computes, per measurement server, the median across
// test runs of the per-run minimum RTT (§8.2): the effectiveness measure
// of Glasnost's server selection.
func GlasnostMonitor(partitions int) *mapreduce.Job {
	return &mapreduce.Job{
		Name:       "glasnost-monitor",
		Partitions: partitions,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			run, ok := rec.(workload.TestRun)
			if !ok {
				return fmt.Errorf("glasnost: record %T is not a TestRun", rec)
			}
			bucket := int32(run.MinRTTMs + 0.5)
			emit("server"+strconv.Itoa(int(run.Server)),
				&RTTHist{Buckets: map[int32]int64{bucket: 1}})
			return nil
		},
		Combine: func(_ string, values []mapreduce.Value) mapreduce.Value {
			return mergeRTTHists(values)
		},
		Reduce: func(_ string, values []mapreduce.Value) mapreduce.Value {
			return mergeRTTHists(values).Median()
		},
		Commutative: true,
	}
}

// AuditSum accumulates PeerReview-style audit results for a group of
// clients (§8.3).
type AuditSum struct {
	// Logs is the number of log chunks audited.
	Logs int64
	// Entries is the number of hash-chain entries verified.
	Entries int64
	// Violations counts chunks whose hash chain failed verification.
	Violations int64
}

var (
	_ mapreduce.Sizer         = (*AuditSum)(nil)
	_ mapreduce.Fingerprinter = (*AuditSum)(nil)
)

// Add returns a fresh sum.
func (a *AuditSum) Add(b *AuditSum) *AuditSum {
	return sumAudits([]mapreduce.Value{a, b})
}

// sumAudits is NetSessionAudit's Combine: the sum of values'
// sums, in one fresh sum; a lone sum is returned as it is.
func sumAudits(values []mapreduce.Value) *AuditSum {
	first := values[0].(*AuditSum)
	if len(values) == 1 {
		return first
	}
	out := *first
	for _, v := range values[1:] {
		b := v.(*AuditSum)
		out.Logs += b.Logs
		out.Entries += b.Entries
		out.Violations += b.Violations
	}
	return &out
}

// SizeBytes implements mapreduce.Sizer.
func (a *AuditSum) SizeBytes() int64 { return 24 }

// Fingerprint implements mapreduce.Fingerprinter.
func (a *AuditSum) Fingerprint() uint64 {
	x := uint64(a.Logs)*0x9e3779b97f4a7c15 ^ uint64(a.Entries)*1099511628211 ^ uint64(a.Violations)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	return x ^ (x >> 27)
}

// NetSessionAudit verifies the tamper-evident hash chains of hybrid-CDN
// client logs and aggregates audit verdicts per client group (§8.3).
func NetSessionAudit(partitions, clientGroups int) *mapreduce.Job {
	if clientGroups <= 0 {
		clientGroups = 64
	}
	return &mapreduce.Job{
		Name:       "netsession-audit",
		Partitions: partitions,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			log, ok := rec.(workload.ClientLog)
			if !ok {
				return fmt.Errorf("netsession: record %T is not a ClientLog", rec)
			}
			var prev uint64
			violated := false
			for i, e := range log.Entries {
				prev = workload.ChainStep(prev, i)
				if e != prev {
					violated = true
					prev = e // resynchronize, as a real auditor would
				}
			}
			sum := &AuditSum{Logs: 1, Entries: int64(len(log.Entries))}
			if violated {
				sum.Violations = 1
			}
			emit("group"+strconv.Itoa(int(log.Client)%clientGroups), sum)
			return nil
		},
		Combine: func(_ string, values []mapreduce.Value) mapreduce.Value {
			return sumAudits(values)
		},
		Commutative: true,
	}
}
