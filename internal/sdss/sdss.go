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
// usable and mirrors an SDSS-like stripe.
type GenerateConfig struct {
	N    int   // number of galaxies (default 1000)
	Seed int64 // RNG seed

	// Field extents (defaults: RA ∈ [150,200), Dec ∈ [0,40)).
	RAMin, RAMax   float64
	DecMin, DecMax float64

	// Redshift distribution: Gamma(shape, scale) + floor, defaulting to
	// shape 2.2, scale 0.09, floor 0.01, giving the bulk in z ∈ [0.05, 0.6].
	ZShape, ZScale, ZFloor float64

	// Relative errors: position error in arcsec (default 0.1–0.5″) and
	// redshift error as a fraction of z (default 2–8 %).
	PosErrArcsecMin, PosErrArcsecMax float64
	ZRelErrMin, ZRelErrMax           float64
}

func (c GenerateConfig) normalize() GenerateConfig {
	if c.N <= 0 {
		c.N = 1000
	}
	if c.RAMax <= c.RAMin {
		c.RAMin, c.RAMax = 150, 200
	}
	if c.DecMax <= c.DecMin {
		c.DecMin, c.DecMax = 0, 40
	}
	if c.ZShape <= 0 {
		c.ZShape = 2.2
	}
	if c.ZScale <= 0 {
		c.ZScale = 0.09
	}
	if c.ZFloor <= 0 {
		c.ZFloor = 0.01
	}
	if c.PosErrArcsecMax <= c.PosErrArcsecMin || c.PosErrArcsecMin <= 0 {
		c.PosErrArcsecMin, c.PosErrArcsecMax = 0.1, 0.5
	}
	if c.ZRelErrMax <= c.ZRelErrMin || c.ZRelErrMin <= 0 {
		c.ZRelErrMin, c.ZRelErrMax = 0.02, 0.08
	}
	return c
}

// Generate builds a synthetic catalog.
func Generate(cfg GenerateConfig) *Catalog {
	cfg = cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	zdist := dist.Gamma{K: cfg.ZShape, Theta: cfg.ZScale, Loc: cfg.ZFloor}
	cat := &Catalog{Galaxies: make([]Galaxy, cfg.N)}
	for i := range cat.Galaxies {
		z := zdist.Sample(rng)
		posErrDeg := (cfg.PosErrArcsecMin +
			rng.Float64()*(cfg.PosErrArcsecMax-cfg.PosErrArcsecMin)) / 3600
		cat.Galaxies[i] = Galaxy{
			ObjID:       1_000_000 + int64(i),
			RA:          cfg.RAMin + rng.Float64()*(cfg.RAMax-cfg.RAMin),
			Dec:         cfg.DecMin + rng.Float64()*(cfg.DecMax-cfg.DecMin),
			RAErr:       posErrDeg,
			DecErr:      posErrDeg,
			Redshift:    z,
			RedshiftErr: z * (cfg.ZRelErrMin + rng.Float64()*(cfg.ZRelErrMax-cfg.ZRelErrMin)),
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
