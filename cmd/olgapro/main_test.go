package main

import (
	"testing"

	"olgapro/internal/query"
	"olgapro/internal/sdss"
)

func TestGalaxyRelation(t *testing.T) {
	cat := sdss.Generate(sdss.GenerateConfig{N: 5, Seed: 3})
	rel := galaxyRelation(cat)
	if len(rel) != 5 {
		t.Fatalf("relation has %d tuples, want 5", len(rel))
	}
	for i, tup := range rel {
		if got := tup.MustGet("objID").I; got != cat.Galaxies[i].ObjID {
			t.Fatalf("tuple %d objID %d ≠ %d", i, got, cat.Galaxies[i].ObjID)
		}
		if tup.MustGet("redshift").Kind != query.KindUncertain {
			t.Fatalf("tuple %d redshift not uncertain", i)
		}
	}
}
