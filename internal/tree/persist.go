// Persistence of tree caching state: histograms, counters, and learned
// heuristic thresholds per node. Sparse vectors are deliberately dropped
// on export — a restored tree re-initializes SVs on first use, which
// costs one 3ε_SV payment per node set but is always privacy-safe (a
// persisted noisy threshold could otherwise be replayed inconsistently).
//
// The section's layout: the node count, then per node its interval's
// start and end, the histogram's weights and counts (float slices) and
// update count, and the thresholds (a float slice, empty if untouched).

package tree

import (
	"fmt"
	"sort"

	"repro/internal/heuristic"
	"repro/internal/histogram"
	"repro/internal/interval"
	"repro/internal/persist"
)

// SectionNodes tags the tree's warm node state in session snapshots.
const SectionNodes = "tree/nodes"

// SnapshotSection implements persist.Snapshotter.
func (t *Tree) SnapshotSection() string { return SectionNodes }

// SnapshotPayload exports every materialized node (histograms, heuristic
// thresholds); sparse vectors are dropped by design (see the file
// comment).
func (t *Tree) SnapshotPayload() []byte {
	nodes := t.ExportNodes()
	var e persist.Encoder
	e.PutUvarint(uint64(len(nodes)))
	for _, n := range nodes {
		e.PutInt(n.IV.Start)
		e.PutInt(n.IV.End)
		e.PutFloats(n.Hist.Weights)
		e.PutFloats(n.Hist.Counts)
		e.PutInt(n.Hist.Updates)
		e.PutFloats(n.Thresholds)
	}
	return e.Payload()
}

// StagePayload implements persist.Snapshotter: it decodes the section and
// builds every node it restores (stageNodes), changing nothing.
func (t *Tree) StagePayload(payload []byte) (func(), error) {
	d := persist.NewDecoder(payload)
	nodes := make([]NodeState, d.Count(6))
	for i := range nodes {
		nodes[i] = NodeState{
			IV:         interval.Node{Start: d.Int(), End: d.Int()},
			Hist:       histogram.State{Weights: d.Floats(), Counts: d.Floats(), Updates: d.Int()},
			Thresholds: d.Floats(),
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return t.stageNodes(nodes)
}

// NodeState is the serializable state of one tree node.
type NodeState struct {
	IV         interval.Node
	Hist       histogram.State
	Thresholds []float64 // adaptive per-bin thresholds, nil if untouched
}

// ExportNodes snapshots every materialized node, sorted by interval so
// identical tree states export byte-identically (the node map iterates in
// random order; TestSnapshotBytesDeterministic pins the whole envelope).
func (t *Tree) ExportNodes() []NodeState {
	t.mu.Lock()
	out := make([]NodeState, 0, len(t.nodes))
	for iv, n := range t.nodes {
		st := NodeState{IV: iv, Hist: n.hist.State()}
		if ap, ok := n.heur.(*heuristic.AdaptivePerBin); ok {
			_, _, st.Thresholds = ap.State()
		}
		out = append(out, st)
	}
	t.mu.Unlock()
	sort.Sort(byInterval(out))
	return out
}

// byInterval orders node states by start, then end. It is a sort.Interface
// rather than a sort.Slice closure so that the binary links no reflection
// swapper.
type byInterval []NodeState

func (s byInterval) Len() int      { return len(s) }
func (s byInterval) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s byInterval) Less(i, j int) bool {
	if s[i].IV.Start != s[j].IV.Start {
		return s[i].IV.Start < s[j].IV.Start
	}
	return s[i].IV.End < s[j].IV.End
}

// stageNodes builds the node map a snapshot's node states restore,
// refusing an invalid interval, a histogram that is not the domain's and
// thresholds that are not one per bin, and returns the apply that swaps
// the map in. A session restores before its tree answers anything (its
// restore window).
func (t *Tree) stageNodes(states []NodeState) (func(), error) {
	size := t.exec.Dataset().Domain().Size()
	nodes := make(map[interval.Node]*node, len(states))
	for _, st := range states {
		if !st.IV.Valid() {
			return nil, fmt.Errorf("tree: invalid node %v in snapshot", st.IV)
		}
		h, err := histogram.FromState(st.Hist)
		if err != nil {
			return nil, fmt.Errorf("tree: node %v: %w", st.IV, err)
		}
		if h.Size() != size {
			return nil, fmt.Errorf("tree: node %v histogram size %d != domain %d", st.IV, h.Size(), size)
		}
		n := &node{
			iv:    st.IV,
			hist:  h,
			heur:  t.cfg.Heuristic(),
			lr:    t.cfg.LR(),
			tau:   t.cfg.Tau,
			alpha: t.cfg.Alpha,
		}
		if ap, ok := n.heur.(*heuristic.AdaptivePerBin); ok && st.Thresholds != nil {
			if len(st.Thresholds) != size {
				return nil, fmt.Errorf("tree: node %v threshold length %d != domain %d",
					st.IV, len(st.Thresholds), size)
			}
			ap.SetThresholds(st.Thresholds)
		}
		nodes[st.IV] = n
	}
	return func() {
		t.mu.Lock()
		t.nodes = nodes
		t.mu.Unlock()
	}, nil
}
