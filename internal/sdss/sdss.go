// Package sdss generates and serializes a synthetic galaxy catalog shaped
// like the Sloan Digital Sky Survey extract used in the paper's case study
// (§6.4): each object carries uncertain position and redshift attributes
// modeled as Gaussians, the representation the paper itself adopts ("the
// objects ... are commonly Gaussian distributions", §1).
//
// Substitution note: the real SDSS archive is not available
// offline, so the catalog is synthetic, but the algorithms only ever consume
// the per-tuple distributions, whose family and spread this generator
// matches.
package sdss

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"olgapro/internal/dist"
)

// Galaxy is one catalog object with uncertain attributes. The *Err fields
// are 1σ measurement errors; the mean fields are the catalog estimates.
type Galaxy struct {
	ObjID       int64
	RA, Dec     float64 // position, degrees (J2000)
	RAErr       float64
	DecErr      float64
	Redshift    float64
	RedshiftErr float64
}

// RedshiftDist returns the redshift as an uncertain scalar attribute.
func (g Galaxy) RedshiftDist() dist.Dist {
	return dist.Normal{Mu: g.Redshift, Sigma: g.RedshiftErr}
}

// PosDist returns the position (ra, dec) as an uncertain 2-vector.
func (g Galaxy) PosDist() *dist.Independent {
	return dist.NewIndependent(
		dist.Normal{Mu: g.RA, Sigma: g.RAErr},
		dist.Normal{Mu: g.Dec, Sigma: g.DecErr},
	)
}

// Catalog is a set of galaxies.
type Catalog struct {
	Galaxies []Galaxy
}

// GenerateConfig controls synthetic catalog generation. The zero value is
// usable and draws 1000 galaxies.
type GenerateConfig struct {
	N    int   // number of galaxies (default 1000)
	Seed int64 // RNG seed
}

// The catalog's shape: an SDSS-like stripe with RA ∈ [150,200) and
// Dec ∈ [0,40) degrees; redshifts Gamma(2.2, 0.09) + 0.01, which puts the
// bulk in z ∈ [0.05, 0.6]; position errors of 0.1–0.5″ and redshift errors
// of 2–8 % of z. The constants are typed so each difference below rounds
// to float64 as a run-time subtraction would: the catalog's bits, which
// TestGenerateDigest pins, depend on it.
const (
	raMin, raMax                     float64 = 150, 200
	decMin, decMax                   float64 = 0, 40
	zShape, zScale, zFloor           float64 = 2.2, 0.09, 0.01
	posErrArcsecMin, posErrArcsecMax float64 = 0.1, 0.5
	zRelErrMin, zRelErrMax           float64 = 0.02, 0.08
)

// Generate builds a synthetic catalog.
func Generate(cfg GenerateConfig) *Catalog {
	if cfg.N <= 0 {
		cfg.N = 1000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zdist := dist.Gamma{K: zShape, Theta: zScale, Loc: zFloor}
	cat := &Catalog{Galaxies: make([]Galaxy, cfg.N)}
	for i := range cat.Galaxies {
		z := zdist.Sample(rng)
		posErrDeg := (posErrArcsecMin +
			rng.Float64()*(posErrArcsecMax-posErrArcsecMin)) / 3600
		cat.Galaxies[i] = Galaxy{
			ObjID:       1_000_000 + int64(i),
			RA:          raMin + rng.Float64()*(raMax-raMin),
			Dec:         decMin + rng.Float64()*(decMax-decMin),
			RAErr:       posErrDeg,
			DecErr:      posErrDeg,
			Redshift:    z,
			RedshiftErr: z * (zRelErrMin + rng.Float64()*(zRelErrMax-zRelErrMin)),
		}
	}
	return cat
}

var csvHeader = []string{"objID", "ra", "dec", "raErr", "decErr", "redshift", "redshiftErr"}

// WriteCSV serializes the catalog with a header row.
func (c *Catalog) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("sdss: write header: %w", err)
	}
	rec := make([]string, len(csvHeader))
	for _, g := range c.Galaxies {
		rec[0] = strconv.FormatInt(g.ObjID, 10)
		rec[1] = strconv.FormatFloat(g.RA, 'g', 17, 64)
		rec[2] = strconv.FormatFloat(g.Dec, 'g', 17, 64)
		rec[3] = strconv.FormatFloat(g.RAErr, 'g', 17, 64)
		rec[4] = strconv.FormatFloat(g.DecErr, 'g', 17, 64)
		rec[5] = strconv.FormatFloat(g.Redshift, 'g', 17, 64)
		rec[6] = strconv.FormatFloat(g.RedshiftErr, 'g', 17, 64)
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("sdss: write row for %d: %w", g.ObjID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a catalog written by WriteCSV.
func ReadCSV(r io.Reader) (*Catalog, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("sdss: read header: %w", err)
	}
	if len(header) != len(csvHeader) {
		return nil, fmt.Errorf("sdss: header has %d columns, want %d", len(header), len(csvHeader))
	}
	for i, h := range csvHeader {
		if header[i] != h {
			return nil, fmt.Errorf("sdss: header column %d is %q, want %q", i, header[i], h)
		}
	}
	cat := &Catalog{}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return cat, nil
		}
		if err != nil {
			return nil, fmt.Errorf("sdss: line %d: %w", line, err)
		}
		var g Galaxy
		g.ObjID, err = strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sdss: line %d objID: %w", line, err)
		}
		fields := []*float64{&g.RA, &g.Dec, &g.RAErr, &g.DecErr, &g.Redshift, &g.RedshiftErr}
		for i, dst := range fields {
			v, err := strconv.ParseFloat(rec[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("sdss: line %d column %s: %w", line, csvHeader[i+1], err)
			}
			*dst = v
		}
		if g.RedshiftErr <= 0 || g.RAErr <= 0 || g.DecErr <= 0 {
			return nil, fmt.Errorf("sdss: line %d: non-positive error column", line)
		}
		cat.Galaxies = append(cat.Galaxies, g)
	}
}
