package sdss

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"testing"
)

func TestGenerateDefaults(t *testing.T) {
	cat := Generate(GenerateConfig{Seed: 1})
	if len(cat.Galaxies) != 1000 {
		t.Fatalf("default N = %d", len(cat.Galaxies))
	}
	ids := make(map[int64]bool)
	for _, g := range cat.Galaxies {
		if g.RA < 150 || g.RA >= 200 || g.Dec < 0 || g.Dec >= 40 {
			t.Fatalf("galaxy outside field: ra=%g dec=%g", g.RA, g.Dec)
		}
		if g.Redshift <= 0 {
			t.Fatalf("non-positive redshift %g", g.Redshift)
		}
		if g.RedshiftErr <= 0 || g.RAErr <= 0 || g.DecErr <= 0 {
			t.Fatalf("non-positive error on %d", g.ObjID)
		}
		if g.RedshiftErr > 0.2*g.Redshift {
			t.Fatalf("redshift error %g too large for z=%g", g.RedshiftErr, g.Redshift)
		}
		if ids[g.ObjID] {
			t.Fatalf("duplicate objID %d", g.ObjID)
		}
		ids[g.ObjID] = true
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenerateConfig{N: 10, Seed: 7})
	b := Generate(GenerateConfig{N: 10, Seed: 7})
	for i := range a.Galaxies {
		if a.Galaxies[i] != b.Galaxies[i] {
			t.Fatal("same seed differs")
		}
	}
	c := Generate(GenerateConfig{N: 10, Seed: 8})
	if a.Galaxies[0] == c.Galaxies[0] {
		t.Fatal("different seeds identical")
	}
}

func TestDistAccessors(t *testing.T) {
	g := Galaxy{RA: 180, Dec: 30, RAErr: 0.001, DecErr: 0.002, Redshift: 0.4, RedshiftErr: 0.02}
	zd := g.RedshiftDist()
	if zd.Mean() != 0.4 || math.Abs(zd.Variance()-0.0004) > 1e-15 {
		t.Fatalf("redshift dist mean/var = %g/%g", zd.Mean(), zd.Variance())
	}
	pd := g.PosDist()
	if pd.Dim() != 2 {
		t.Fatalf("pos dim = %d", pd.Dim())
	}
	m := pd.MeanVec()
	if m[0] != 180 || m[1] != 30 {
		t.Fatalf("pos mean = %v", m)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	cat := Generate(GenerateConfig{N: 50, Seed: 3})
	var buf bytes.Buffer
	if err := cat.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Galaxies) != 50 {
		t.Fatalf("round trip lost rows: %d", len(back.Galaxies))
	}
	for i := range cat.Galaxies {
		if cat.Galaxies[i] != back.Galaxies[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, cat.Galaxies[i], back.Galaxies[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad header", "a,b\n"},
		{"wrong header names", "objID,ra,dec,raErr,decErr,redshift,zerr\n"},
		{"bad objID", "objID,ra,dec,raErr,decErr,redshift,redshiftErr\nxx,1,2,0.1,0.1,0.5,0.01\n"},
		{"bad float", "objID,ra,dec,raErr,decErr,redshift,redshiftErr\n1,xx,2,0.1,0.1,0.5,0.01\n"},
		{"zero error col", "objID,ra,dec,raErr,decErr,redshift,redshiftErr\n1,1,2,0,0.1,0.5,0.01\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(c.in)); err == nil {
				t.Fatalf("expected error for %q", c.name)
			}
		})
	}
}

func TestReadCSVEmptyCatalog(t *testing.T) {
	cat, err := ReadCSV(strings.NewReader("objID,ra,dec,raErr,decErr,redshift,redshiftErr\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Galaxies) != 0 {
		t.Fatalf("expected empty catalog, got %d", len(cat.Galaxies))
	}
}

// TestGenerateDigest pins every bit of the catalogs Generate draws, which
// feed the Q1 workloads and goldens: a change to the field extents, the
// redshift law or the error ranges, or to the order of the arithmetic that
// applies them, moves the digest.
func TestGenerateDigest(t *testing.T) {
	for _, c := range []struct {
		n    int
		seed int64
		want uint64
	}{
		{1000, 0, 0xc46ba8e9a689c1ef},
		{4000, 1, 0xa0f8d4500c3d2366},
		{257, 42, 0x73678ac5a0b0e4af},
	} {
		h := fnv.New64a()
		var b [8]byte
		for _, g := range Generate(GenerateConfig{N: c.n, Seed: c.seed}).Galaxies {
			binary.LittleEndian.PutUint64(b[:], uint64(g.ObjID))
			h.Write(b[:])
			for _, v := range []float64{g.RA, g.Dec, g.RAErr, g.DecErr, g.Redshift, g.RedshiftErr} {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("Generate(N=%d, Seed=%d) digest %#x, want %#x", c.n, c.seed, got, c.want)
		}
	}
}
