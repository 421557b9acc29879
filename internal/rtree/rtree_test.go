package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r, err := NewRect([]float64{0, 0}, []float64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Contains([]float64{1, 1}) || r.Contains([]float64{3, 1}) {
		t.Error("Contains wrong")
	}
	if got := r.Area(); got != 8 {
		t.Errorf("Area = %g, want 8", got)
	}
	if got := r.Margin(); got != 6 {
		t.Errorf("Margin = %g, want 6", got)
	}
	if r.Dim() != 2 {
		t.Errorf("Dim = %d", r.Dim())
	}
}

func TestNewRectErrors(t *testing.T) {
	if _, err := NewRect([]float64{0}, []float64{1, 2}); err == nil {
		t.Error("dim mismatch should error")
	}
	if _, err := NewRect([]float64{2}, []float64{1}); err == nil {
		t.Error("lo > hi should error")
	}
}

func TestRectUnionIntersects(t *testing.T) {
	a, _ := NewRect([]float64{0, 0}, []float64{1, 1})
	b, _ := NewRect([]float64{2, 2}, []float64{3, 3})
	if a.Intersects(b) {
		t.Error("disjoint rects intersect")
	}
	u := a.union(b)
	if u.Lo[0] != 0 || u.Hi[1] != 3 {
		t.Errorf("Union = %+v", u)
	}
	c, _ := NewRect([]float64{0.5, 0.5}, []float64{2.5, 2.5})
	if !a.Intersects(c) || !b.Intersects(c) {
		t.Error("overlapping rects do not intersect")
	}
	// Touching boundaries count as intersecting.
	d, _ := NewRect([]float64{1, 0}, []float64{2, 1})
	if !a.Intersects(d) {
		t.Error("touching rects should intersect")
	}
}

func TestMinMaxDist(t *testing.T) {
	r, _ := NewRect([]float64{0, 0}, []float64{2, 2})
	cases := []struct {
		p        []float64
		min, max float64
	}{
		{[]float64{1, 1}, 0, math.Sqrt2},                // inside, farthest corner √2
		{[]float64{3, 1}, 1, math.Sqrt(9 + 1)},          // right of box
		{[]float64{-1, -1}, math.Sqrt2, 3 * math.Sqrt2}, // below-left corner
		{[]float64{1, 5}, 3, math.Sqrt(1 + 25)},         // above
	}
	for _, c := range cases {
		if got := r.MinDist(c.p); math.Abs(got-c.min) > 1e-12 {
			t.Errorf("MinDist(%v) = %g, want %g", c.p, got, c.min)
		}
		if got := r.MaxDist(c.p); math.Abs(got-c.max) > 1e-12 {
			t.Errorf("MaxDist(%v) = %g, want %g", c.p, got, c.max)
		}
	}
}

func TestRectDist(t *testing.T) {
	a, _ := NewRect([]float64{0, 0}, []float64{1, 1})
	b, _ := NewRect([]float64{4, 5}, []float64{6, 7})
	want := math.Sqrt(9 + 16)
	if got := RectDist(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("RectDist = %g, want %g", got, want)
	}
	if got := RectDist(a, a); got != 0 {
		t.Errorf("RectDist(self) = %g", got)
	}
}

func TestExpand(t *testing.T) {
	r, _ := NewRect([]float64{0, 0}, []float64{1, 1})
	e := r.Expand(0.5)
	if e.Lo[0] != -0.5 || e.Hi[1] != 1.5 {
		t.Errorf("Expand = %+v", e)
	}
}

func TestBoundingBox(t *testing.T) {
	pts := [][]float64{{1, 5}, {-2, 3}, {4, 0}}
	b := BoundingBox(pts)
	if b.Lo[0] != -2 || b.Lo[1] != 0 || b.Hi[0] != 4 || b.Hi[1] != 5 {
		t.Errorf("BoundingBox = %+v", b)
	}
	defer func() {
		if recover() == nil {
			t.Error("BoundingBox(nil) should panic")
		}
	}()
	BoundingBox(nil)
}

func TestInsertAndSearchSmall(t *testing.T) {
	var tr Tree
	pts := [][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {10, 10}}
	for i, p := range pts {
		if err := tr.Insert(p, i); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 5 {
		t.Fatalf("Len = %d", tr.Len())
	}
	q, _ := NewRect([]float64{0.5, 0.5}, []float64{3.5, 3.5})
	var got []int
	tr.Search(q, func(id int, _ []float64) bool {
		got = append(got, id)
		return true
	})
	sort.Ints(got)
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Search = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Search = %v, want %v", got, want)
		}
	}
}

func TestInsertDimMismatch(t *testing.T) {
	var tr Tree
	if err := tr.Insert([]float64{1, 2}, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]float64{1}, 1); err == nil {
		t.Fatal("dim mismatch should error")
	}
}

func TestInsertCopiesPoint(t *testing.T) {
	var tr Tree
	p := []float64{1, 2}
	if err := tr.Insert(p, 0); err != nil {
		t.Fatal(err)
	}
	p[0] = 99
	q, _ := NewRect([]float64{0, 0}, []float64{3, 3})
	found := false
	tr.Search(q, func(_ int, pt []float64) bool {
		found = pt[0] == 1
		return true
	})
	if !found {
		t.Fatal("Insert did not copy the point")
	}
}

func TestSearchEarlyStop(t *testing.T) {
	var tr Tree
	for i := 0; i < 50; i++ {
		if err := tr.Insert([]float64{float64(i)}, i); err != nil {
			t.Fatal(err)
		}
	}
	q, _ := NewRect([]float64{0}, []float64{100})
	count := 0
	tr.Search(q, func(_ int, _ []float64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestDepthGrows(t *testing.T) {
	var tr Tree
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		if err := tr.Insert([]float64{rng.Float64() * 100, rng.Float64() * 100}, i); err != nil {
			t.Fatal(err)
		}
	}
	if d := tr.Depth(); d < 2 {
		t.Fatalf("Depth = %d after 500 inserts", d)
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// All must visit every point exactly once.
	seen := make(map[int]bool)
	tr.All(func(id int, _ []float64) bool {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
		return true
	})
	if len(seen) != 500 {
		t.Fatalf("All visited %d points", len(seen))
	}
}

// Property: rect Search matches brute-force filtering.
func TestQuickSearchMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(3)
		n := 1 + rng.Intn(200)
		pts := make([][]float64, n)
		var tr Tree
		for i := range pts {
			pts[i] = make([]float64, d)
			for j := range pts[i] {
				pts[i][j] = rng.Float64() * 10
			}
			if err := tr.Insert(pts[i], i); err != nil {
				return false
			}
		}
		lo := make([]float64, d)
		hi := make([]float64, d)
		for j := 0; j < d; j++ {
			a, b := rng.Float64()*10, rng.Float64()*10
			lo[j], hi[j] = math.Min(a, b), math.Max(a, b)
		}
		q := Rect{Lo: lo, Hi: hi}
		var got []int
		tr.Search(q, func(id int, _ []float64) bool {
			got = append(got, id)
			return true
		})
		var want []int
		for i, p := range pts {
			if q.Contains(p) {
				want = append(want, i)
			}
		}
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: SearchNear matches brute-force distance filtering.
func TestQuickSearchNearMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(3)
		n := 1 + rng.Intn(150)
		pts := make([][]float64, n)
		var tr Tree
		for i := range pts {
			pts[i] = make([]float64, d)
			for j := range pts[i] {
				pts[i][j] = rng.Float64() * 10
			}
			if err := tr.Insert(pts[i], i); err != nil {
				return false
			}
		}
		lo := make([]float64, d)
		hi := make([]float64, d)
		for j := 0; j < d; j++ {
			a, b := rng.Float64()*10, rng.Float64()*10
			lo[j], hi[j] = math.Min(a, b), math.Max(a, b)
		}
		q := Rect{Lo: lo, Hi: hi}
		delta := rng.Float64() * 3
		got := tr.IDsNear(q, delta)
		var want []int
		for i, p := range pts {
			if q.MinDist(p) <= delta {
				want = append(want, i)
			}
		}
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: MinDist ≤ dist(p, x) ≤ MaxDist for every x in the rect.
func TestQuickMinMaxDistEnvelope(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(4)
		lo := make([]float64, d)
		hi := make([]float64, d)
		for j := 0; j < d; j++ {
			a, b := rng.NormFloat64()*5, rng.NormFloat64()*5
			lo[j], hi[j] = math.Min(a, b), math.Max(a, b)
		}
		r := Rect{Lo: lo, Hi: hi}
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.NormFloat64() * 8
		}
		for trial := 0; trial < 10; trial++ {
			x := make([]float64, d)
			for j := range x {
				x[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
			}
			var dist float64
			for j := range x {
				dd := x[j] - p[j]
				dist += dd * dd
			}
			dist = math.Sqrt(dist)
			if dist < r.MinDist(p)-1e-9 || dist > r.MaxDist(p)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([][]float64, 10000)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tr Tree
		for j, p := range pts {
			if err := tr.Insert(p, j); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSearchNear(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var tr Tree
	for i := 0; i < 10000; i++ {
		if err := tr.Insert([]float64{rng.Float64() * 100, rng.Float64() * 100}, i); err != nil {
			b.Fatal(err)
		}
	}
	q, _ := NewRect([]float64{40, 40}, []float64{45, 45})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.IDsNear(q, 5)
	}
}

// pointRect returns the degenerate rectangle covering a single point, in
// fresh storage.
func pointRect(p []float64) Rect {
	lo := make([]float64, len(p))
	hi := make([]float64, len(p))
	copy(lo, p)
	copy(hi, p)
	return Rect{Lo: lo, Hi: hi}
}

// union returns the smallest rectangle covering r and s in fresh storage:
// how the tree grew rectangles before it grew them in place.
func (r Rect) union(s Rect) Rect {
	lo := make([]float64, len(r.Lo))
	hi := make([]float64, len(r.Hi))
	for i := range lo {
		lo[i] = math.Min(r.Lo[i], s.Lo[i])
		hi[i] = math.Max(r.Hi[i], s.Hi[i])
	}
	return Rect{Lo: lo, Hi: hi}
}

// refInsert is the insertion path as it was before rectangles were grown in
// place: every enlargement, cover and split group built with union. It is
// the reference TestInPlaceInsertMatchesUnionPath compares against.
func (t *Tree) refInsert(p []float64, id int) {
	if t.root == nil {
		t.root = &node{leaf: true}
		t.dim = len(p)
	}
	cp := append([]float64(nil), p...)
	split := refInsertAt(t.root, entry{rect: pointRect(cp), id: id, point: cp})
	if split != nil {
		old := t.root
		t.root = &node{entries: []entry{
			{rect: refNodeRect(old), child: old},
			{rect: refNodeRect(split), child: split},
		}}
	}
	t.size++
}

func refInsertAt(n *node, e entry) *node {
	if n.leaf {
		n.entries = append(n.entries, e)
		if len(n.entries) > maxEntries {
			return refSplit(n)
		}
		return nil
	}
	best, bestEnl, bestMargin := 0, math.Inf(1), math.Inf(1)
	for i, c := range n.entries {
		m := c.rect.Margin()
		enl := c.rect.union(e.rect).Margin() - m
		if enl < bestEnl || (enl == bestEnl && m < bestMargin) {
			best, bestEnl, bestMargin = i, enl, m
		}
	}
	split := refInsertAt(n.entries[best].child, e)
	n.entries[best].rect = refNodeRect(n.entries[best].child)
	if split != nil {
		n.entries = append(n.entries, entry{rect: refNodeRect(split), child: split})
		if len(n.entries) > maxEntries {
			return refSplit(n)
		}
	}
	return nil
}

func refNodeRect(n *node) Rect {
	r := n.entries[0].rect
	for _, e := range n.entries[1:] {
		r = r.union(e.rect)
	}
	return r
}

func refSplit(n *node) *node {
	entries := n.entries
	s1, s2 := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			waste := entries[i].rect.union(entries[j].rect).Margin() -
				entries[i].rect.Margin() - entries[j].rect.Margin()
			if waste > worst {
				worst, s1, s2 = waste, i, j
			}
		}
	}
	g1, g2 := []entry{entries[s1]}, []entry{entries[s2]}
	r1, r2 := entries[s1].rect, entries[s2].rect
	var rest []entry
	for i, e := range entries {
		if i != s1 && i != s2 {
			rest = append(rest, e)
		}
	}
	for len(rest) > 0 {
		if len(g1)+len(rest) == minEntries {
			g1 = append(g1, rest...)
			break
		}
		if len(g2)+len(rest) == minEntries {
			g2 = append(g2, rest...)
			break
		}
		bestIdx, bestDiff := 0, -1.0
		for i, e := range rest {
			d1 := r1.union(e.rect).Margin() - r1.Margin()
			d2 := r2.union(e.rect).Margin() - r2.Margin()
			if diff := math.Abs(d1 - d2); diff > bestDiff {
				bestIdx, bestDiff = i, diff
			}
		}
		e := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		d1 := r1.union(e.rect).Margin() - r1.Margin()
		d2 := r2.union(e.rect).Margin() - r2.Margin()
		if d1 < d2 || (d1 == d2 && len(g1) < len(g2)) {
			g1 = append(g1, e)
			r1 = r1.union(e.rect)
		} else {
			g2 = append(g2, e)
			r2 = r2.union(e.rect)
		}
	}
	n.entries = g1
	return &node{leaf: n.leaf, entries: g2}
}

// sameBitsRect reports whether two rectangles hold the same float bits.
func sameBitsRect(a, b Rect) bool {
	if len(a.Lo) != len(b.Lo) || len(a.Hi) != len(b.Hi) {
		return false
	}
	for i := range a.Lo {
		if math.Float64bits(a.Lo[i]) != math.Float64bits(b.Lo[i]) ||
			math.Float64bits(a.Hi[i]) != math.Float64bits(b.Hi[i]) {
			return false
		}
	}
	return true
}

// sameTree walks two trees in lockstep and reports the first difference in
// shape, ids, points or node rectangles (bitwise).
func sameTree(a, b *node, path string) string {
	if a.leaf != b.leaf || len(a.entries) != len(b.entries) {
		return fmt.Sprintf("%s: leaf %v/%v, %d/%d entries", path, a.leaf, b.leaf, len(a.entries), len(b.entries))
	}
	for i := range a.entries {
		ea, eb := a.entries[i], b.entries[i]
		at := fmt.Sprintf("%s/%d", path, i)
		if !sameBitsRect(ea.rect, eb.rect) {
			return fmt.Sprintf("%s: rect %v, reference %v", at, ea.rect, eb.rect)
		}
		if a.leaf {
			if ea.id != eb.id || !sameBitsRect(Rect{ea.point, ea.point}, Rect{eb.point, eb.point}) {
				return fmt.Sprintf("%s: point %d %v, reference %d %v", at, ea.id, ea.point, eb.id, eb.point)
			}
			continue
		}
		if d := sameTree(ea.child, eb.child, at); d != "" {
			return d
		}
	}
	return ""
}

// TestInPlaceInsertMatchesUnionPath builds trees from seeded point sets —
// several dimensions, clustered and duplicate points, signed zeros — with
// Insert and with the Union-based reference, and requires the same node
// rectangles bit for bit and the same Search and AppendIDsNear answers.
func TestInPlaceInsertMatchesUnionPath(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		dim, n int
	}{{1, 1, 300}, {2, 2, 1000}, {3, 3, 600}, {4, 5, 400}, {5, 2, 9}} {
		rng := rand.New(rand.NewSource(tc.seed))
		var got, ref Tree
		pts := make([][]float64, tc.n)
		for i := range pts {
			p := make([]float64, tc.dim)
			for j := range p {
				switch rng.Intn(8) {
				case 0:
					p[j] = math.Copysign(0, -1)
				case 1:
					p[j] = 0
				case 2:
					p[j] = math.Floor(rng.Float64() * 4) // duplicates on a grid
				default:
					p[j] = rng.NormFloat64() * 10
				}
			}
			if i > 0 && rng.Intn(10) == 0 {
				copy(p, pts[rng.Intn(i)])
			}
			pts[i] = p
			if err := got.Insert(p, i); err != nil {
				t.Fatal(err)
			}
			ref.refInsert(p, i)
		}
		if d := sameTree(got.root, ref.root, "root"); d != "" {
			t.Fatalf("seed %d dim %d: trees differ at %s", tc.seed, tc.dim, d)
		}
		for q := 0; q < 50; q++ {
			lo := make([]float64, tc.dim)
			hi := make([]float64, tc.dim)
			for j := range lo {
				a, b := rng.NormFloat64()*10, rng.NormFloat64()*10
				lo[j], hi[j] = math.Min(a, b), math.Max(a, b)
			}
			rect := Rect{Lo: lo, Hi: hi}
			var gs, rs []int
			got.Search(rect, func(id int, _ []float64) bool { gs = append(gs, id); return true })
			ref.Search(rect, func(id int, _ []float64) bool { rs = append(rs, id); return true })
			delta := rng.Float64() * 5
			gn := got.AppendIDsNear(nil, rect, delta)
			rn := ref.AppendIDsNear(nil, rect, delta)
			if fmt.Sprint(gs) != fmt.Sprint(rs) || fmt.Sprint(gn) != fmt.Sprint(rn) {
				t.Fatalf("seed %d query %d: Search %v / %v, AppendIDsNear %v / %v", tc.seed, q, gs, rs, gn, rn)
			}
		}
	}
}

// TestInsertAllocs bounds Insert's allocations: the point copy, plus the
// amortized cost of the node splits every few inserts (2.0 measured). The
// Union-based path paid two slices for every rectangle it built: 129 per
// insert at this size.
func TestInsertAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := make([][]float64, 4096)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	var tr Tree
	i := 0
	allocs := testing.AllocsPerRun(len(pts)-1, func() {
		if err := tr.Insert(pts[i], i); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("Insert: %.2f allocs/op at n=%d", allocs, tr.Len())
	if allocs > 3 {
		t.Fatalf("Insert allocates %.2f/op, want ≤ 3", allocs)
	}
}
