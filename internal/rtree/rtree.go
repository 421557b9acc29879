// Package rtree implements an in-memory R-tree over points in ℝᵈ.
//
// OLGAPRO stores its GP training points in an R-tree (paper §5.1) so that
// local inference can quickly retrieve the points within a distance
// threshold of the bounding box of the current input samples. The tree uses
// the classic Guttman quadratic-split insertion algorithm.
package rtree

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned box [Lo, Hi] in ℝᵈ.
type Rect struct {
	Lo, Hi []float64
}

// BoundingBox returns the smallest rectangle covering all points.
// It panics on an empty input, since an empty box has no dimension.
func BoundingBox(points [][]float64) Rect {
	if len(points) == 0 {
		panic("rtree: BoundingBox of no points")
	}
	d := len(points[0])
	lo := make([]float64, d)
	hi := make([]float64, d)
	copy(lo, points[0])
	copy(hi, points[0])
	for _, p := range points[1:] {
		for i, v := range p {
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	return Rect{Lo: lo, Hi: hi}
}

// Margin returns the sum of edge lengths, the "size" used to pick cheap
// enlargements when areas degenerate to zero (point data).
func (r Rect) Margin() float64 {
	var s float64
	for i := range r.Lo {
		s += r.Hi[i] - r.Lo[i]
	}
	return s
}

// MinDist returns the Euclidean distance from point p to the rectangle
// (0 if p is inside). This is the distance to the paper's x_near.
func (r Rect) MinDist(p []float64) float64 {
	var s float64
	for i, v := range p {
		switch {
		case v < r.Lo[i]:
			d := r.Lo[i] - v
			s += d * d
		case v > r.Hi[i]:
			d := v - r.Hi[i]
			s += d * d
		}
	}
	return math.Sqrt(s)
}

// MaxDist returns the Euclidean distance from point p to the farthest point
// of the rectangle, the paper's x_far.
func (r Rect) MaxDist(p []float64) float64 {
	var s float64
	for i, v := range p {
		d := math.Max(math.Abs(v-r.Lo[i]), math.Abs(v-r.Hi[i]))
		s += d * d
	}
	return math.Sqrt(s)
}

// RectDist returns the minimum Euclidean distance between two rectangles
// (0 if they intersect), used for pruning distance-bounded searches.
func RectDist(r, s Rect) float64 {
	var sum float64
	for i := range r.Lo {
		switch {
		case r.Hi[i] < s.Lo[i]:
			d := s.Lo[i] - r.Hi[i]
			sum += d * d
		case s.Hi[i] < r.Lo[i]:
			d := r.Lo[i] - s.Hi[i]
			sum += d * d
		}
	}
	return math.Sqrt(sum)
}

const (
	maxEntries = 8
	minEntries = 3
)

type entry struct {
	rect  Rect
	child *node // nil for leaf entries
	id    int
	point []float64
}

type node struct {
	leaf    bool
	entries []entry
}

// Tree is an R-tree over points with integer identifiers.
// The zero value is an empty tree ready for use.
type Tree struct {
	root *node
	dim  int
	size int
}

// Insert adds a point with the given id. The point slice is copied.
func (t *Tree) Insert(p []float64, id int) error {
	if t.root == nil {
		t.root = &node{leaf: true}
		t.dim = len(p)
	} else if len(p) != t.dim {
		return fmt.Errorf("rtree: point dim %d ≠ tree dim %d", len(p), t.dim)
	}
	cp := make([]float64, len(p))
	copy(cp, p)
	// A leaf entry's rectangle is its point, degenerate: Lo and Hi alias
	// the one copy, so nothing may ever write through a leaf rectangle.
	e := entry{rect: Rect{Lo: cp, Hi: cp}, id: id, point: cp}
	split := t.insert(t.root, e)
	if split != nil {
		// Root split: grow the tree by one level.
		old := t.root
		t.root = &node{leaf: false, entries: []entry{
			{rect: coverOf(old), child: old},
			{rect: coverOf(split), child: split},
		}}
	}
	t.size++
	return nil
}

// insert places e under n, returning a new sibling node if n split. The
// rectangle of every internal entry is storage of its own (see coverOf), so
// refitting it to a grown child writes in place.
func (t *Tree) insert(n *node, e entry) *node {
	if n.leaf {
		n.entries = append(n.entries, e)
		if len(n.entries) > maxEntries {
			return splitNode(n)
		}
		return nil
	}
	best := chooseSubtree(n, e.rect)
	split := t.insert(n.entries[best].child, e)
	n.entries[best].rect.cover(n.entries[best].child)
	if split != nil {
		n.entries = append(n.entries, entry{rect: coverOf(split), child: split})
		if len(n.entries) > maxEntries {
			return splitNode(n)
		}
	}
	return nil
}

// unionMargin returns the margin of the smallest rectangle covering r and s
// without building it: math.Min/math.Max per axis, summed in axis order.
func unionMargin(r, s Rect) float64 {
	var m float64
	for i := range r.Lo {
		m += math.Max(r.Hi[i], s.Hi[i]) - math.Min(r.Lo[i], s.Lo[i])
	}
	return m
}

// extend grows r to cover s in place: the smallest rectangle covering r
// and s, written into r's own storage. r must never be a leaf rectangle, which aliases a point.
func (r Rect) extend(s Rect) {
	for i := range r.Lo {
		r.Lo[i] = math.Min(r.Lo[i], s.Lo[i])
		r.Hi[i] = math.Max(r.Hi[i], s.Hi[i])
	}
}

// cover sets r, in place, to the bounding rectangle of all entries of n,
// accumulated in entry order.
func (r Rect) cover(n *node) {
	copy(r.Lo, n.entries[0].rect.Lo)
	copy(r.Hi, n.entries[0].rect.Hi)
	for _, e := range n.entries[1:] {
		r.extend(e.rect)
	}
}

// coverOf returns the bounding rectangle of all entries of n in fresh
// storage (one allocation): the rectangle a new internal entry owns.
func coverOf(n *node) Rect {
	d := len(n.entries[0].rect.Lo)
	buf := make([]float64, 2*d)
	r := Rect{Lo: buf[:d:d], Hi: buf[d:]}
	r.cover(n)
	return r
}

// chooseSubtree picks the child whose rectangle needs the least margin
// enlargement to cover r (margin rather than area so that point-degenerate
// boxes still discriminate), breaking ties by smaller margin.
func chooseSubtree(n *node, r Rect) int {
	best := 0
	bestEnl := math.Inf(1)
	bestMargin := math.Inf(1)
	for i, e := range n.entries {
		m := e.rect.Margin()
		enl := unionMargin(e.rect, r) - m
		if enl < bestEnl || (enl == bestEnl && m < bestMargin) {
			best, bestEnl, bestMargin = i, enl, m
		}
	}
	return best
}

// splitNode performs Guttman's quadratic split, moving roughly half of n's
// entries into a returned sibling.
func splitNode(n *node) *node {
	entries := n.entries
	// Pick the two seeds wasting the most margin if paired.
	s1, s2 := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			waste := unionMargin(entries[i].rect, entries[j].rect) -
				entries[i].rect.Margin() - entries[j].rect.Margin()
			if waste > worst {
				worst, s1, s2 = waste, i, j
			}
		}
	}
	// The groups' bounding rectangles grow in one scratch buffer: the seeds'
	// rectangles may be leaf rectangles aliasing their points.
	d := len(entries[s1].rect.Lo)
	buf := make([]float64, 4*d)
	r1 := Rect{Lo: buf[:d:d], Hi: buf[d : 2*d : 2*d]}
	r2 := Rect{Lo: buf[2*d : 3*d : 3*d], Hi: buf[3*d:]}
	copy(r1.Lo, entries[s1].rect.Lo)
	copy(r1.Hi, entries[s1].rect.Hi)
	copy(r2.Lo, entries[s2].rect.Lo)
	copy(r2.Hi, entries[s2].rect.Hi)
	rest := make([]entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != s1 && i != s2 {
			rest = append(rest, e)
		}
	}
	// g1 reuses n's entry storage: rest holds copies of every other entry.
	g2 := make([]entry, 1, maxEntries+1) // room to fill before it splits
	g2[0] = entries[s2]
	g1 := append(entries[:0], entries[s1])
	for len(rest) > 0 {
		// Force assignment if one group must take all remaining entries.
		if len(g1)+len(rest) == minEntries {
			g1 = append(g1, rest...)
			break
		}
		if len(g2)+len(rest) == minEntries {
			g2 = append(g2, rest...)
			break
		}
		// Pick the entry with maximal preference for one group.
		bestIdx, bestDiff := 0, -1.0
		for i, e := range rest {
			d1 := unionMargin(r1, e.rect) - r1.Margin()
			d2 := unionMargin(r2, e.rect) - r2.Margin()
			if diff := math.Abs(d1 - d2); diff > bestDiff {
				bestIdx, bestDiff = i, diff
			}
		}
		e := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		d1 := unionMargin(r1, e.rect) - r1.Margin()
		d2 := unionMargin(r2, e.rect) - r2.Margin()
		if d1 < d2 || (d1 == d2 && len(g1) < len(g2)) {
			g1 = append(g1, e)
			r1.extend(e.rect)
		} else {
			g2 = append(g2, e)
			r2.extend(e.rect)
		}
	}
	n.entries = g1
	return &node{leaf: n.leaf, entries: g2}
}

// SearchNear calls fn for every point whose Euclidean distance to rect is at
// most delta (this is the local-inference retrieval of paper §5.1).
// Returning false from fn stops the search early.
func (t *Tree) SearchNear(rect Rect, delta float64, fn func(id int, p []float64) bool) {
	if t.root == nil {
		return
	}
	t.searchNear(t.root, rect, delta, fn)
}

func (t *Tree) searchNear(n *node, rect Rect, delta float64, fn func(id int, p []float64) bool) bool {
	for _, e := range n.entries {
		if RectDist(rect, e.rect) > delta {
			continue
		}
		if n.leaf {
			if rect.MinDist(e.point) <= delta && !fn(e.id, e.point) {
				return false
			}
		} else if !t.searchNear(e.child, rect, delta, fn) {
			return false
		}
	}
	return true
}

// IDsNear collects the ids of all points within delta of rect.
func (t *Tree) IDsNear(rect Rect, delta float64) []int {
	return t.AppendIDsNear(nil, rect, delta)
}

// AppendIDsNear appends the ids of all points within delta of rect to dst
// and returns it, letting hot-path callers reuse one buffer across queries.
func (t *Tree) AppendIDsNear(dst []int, rect Rect, delta float64) []int {
	t.SearchNear(rect, delta, func(id int, _ []float64) bool {
		dst = append(dst, id)
		return true
	})
	return dst
}

// All calls fn for every point in the tree.
func (t *Tree) All(fn func(id int, p []float64) bool) {
	if t.root == nil {
		return
	}
	t.all(t.root, fn)
}

func (t *Tree) all(n *node, fn func(id int, p []float64) bool) bool {
	for _, e := range n.entries {
		if n.leaf {
			if !fn(e.id, e.point) {
				return false
			}
		} else if !t.all(e.child, fn) {
			return false
		}
	}
	return true
}
