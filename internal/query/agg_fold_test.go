package query

// aggItem is one tuple's contribution to an aggregate in the
// possible-worlds references: its statistic interval and whether the tuple
// certainly exists.
type aggItem struct {
	val  Bounded
	sure bool
}

// aggBounds folds the items, in order, through one Partial: the fold every
// bounded operator runs.
func aggBounds(kind AggKind, items []aggItem) Bounded {
	p := NewPartial(kind)
	for i, it := range items {
		p.Observe(PartialItem{Ord: int64(i), Lo: it.val.Lo, Hi: it.val.Hi, Sure: it.sure})
	}
	return p.Bound()
}
