// Package astro implements the astrophysics UDFs of the paper's case study
// (§6.4): GalAge, ComoveVol, and AngDist, modeled on the IDL Astronomy
// Library routines (galage, comdis/comovingvolume, gcirc) that the paper
// treats as black boxes. They are real ΛCDM-cosmology computations whose
// cost is dominated by adaptive numerical quadrature, reproducing the
// paper's regime of smooth, low-dimensional, slow UDFs.
package astro

import (
	"fmt"
	"math"

	"olgapro/internal/udf"
)

// Physical constants.
const (
	// SpeedOfLight in km/s.
	SpeedOfLight = 299792.458
	// HubbleTimeGyrPerH0 converts 1/H0 (with H0 in km/s/Mpc) into Gyr:
	// (Mpc in km) / (Gyr in s) = 977.79222 Gyr·km/s/Mpc.
	HubbleTimeGyrPerH0 = 977.79222168
)

// Cosmology is a Friedmann–Lemaître–Robertson–Walker cosmological model.
type Cosmology struct {
	H0     float64 // Hubble constant, km/s/Mpc
	OmegaM float64 // matter density parameter Ω_m
	OmegaL float64 // dark-energy density parameter Ω_Λ
}

// quadTol is the tolerance of the distance and age quadratures.
const quadTol = 1e-9

// Default returns the concordance cosmology (H0=70, Ωm=0.3, ΩΛ=0.7) used by
// the IDL Astronomy Library defaults.
func Default() Cosmology {
	return Cosmology{H0: 70, OmegaM: 0.3, OmegaL: 0.7}
}

// omegaK returns the curvature density Ω_k = 1 − Ω_m − Ω_Λ.
func (c Cosmology) omegaK() float64 { return 1 - c.OmegaM - c.OmegaL }

// efunc returns E(z) = H(z)/H0.
func (c Cosmology) efunc(z float64) float64 {
	zp := 1 + z
	return math.Sqrt(c.OmegaM*zp*zp*zp + c.omegaK()*zp*zp + c.OmegaL)
}

// HubbleDistance returns D_H = c/H0 in Mpc.
func (c Cosmology) HubbleDistance() float64 { return SpeedOfLight / c.H0 }

// ComovingDistance returns the line-of-sight comoving distance to redshift
// z in Mpc: D_C = D_H ∫₀ᶻ dz′/E(z′).
func (c Cosmology) ComovingDistance(z float64) float64 {
	if z <= 0 {
		return 0
	}
	integral := adaptiveSimpson(func(zz float64) float64 {
		return 1 / c.efunc(zz)
	}, 0, z, quadTol)
	return c.HubbleDistance() * integral
}

// TransverseComovingDistance returns D_M, equal to D_C for a flat universe
// and involving sinh/sin corrections otherwise.
func (c Cosmology) TransverseComovingDistance(z float64) float64 {
	dc := c.ComovingDistance(z)
	ok := c.omegaK()
	if math.Abs(ok) < 1e-12 {
		return dc
	}
	dh := c.HubbleDistance()
	sq := math.Sqrt(math.Abs(ok))
	if ok > 0 {
		return dh / sq * math.Sinh(sq*dc/dh)
	}
	return dh / sq * math.Sin(sq*dc/dh)
}

// GalAge returns the age of the universe at redshift z in Gyr
// (IDL Astronomy Library galage with z_form = ∞):
//
//	t(z) = (1/H0) ∫₀^{a(z)} da / sqrt(Ω_m/a + Ω_k + Ω_Λ a²),  a(z) = 1/(1+z).
//
// The integrand behaves like √a near a = 0 (matter domination); the
// substitution a = u² removes the root singularity so the quadrature
// converges quickly:
//
//	t(z) = (2/H0) ∫₀^{√a} u² du / sqrt(Ω_m + Ω_k u² + Ω_Λ u⁶).
func (c Cosmology) GalAge(z float64) float64 {
	if z < 0 {
		z = 0
	}
	a := 1 / (1 + z)
	ok := c.omegaK()
	integral := adaptiveSimpson(func(u float64) float64 {
		u2 := u * u
		return 2 * u2 / math.Sqrt(c.OmegaM+ok*u2+c.OmegaL*u2*u2*u2)
	}, 0, math.Sqrt(a), quadTol)
	return HubbleTimeGyrPerH0 / c.H0 * integral
}

// ComovingVolume returns the comoving volume in Mpc³ between redshifts z1
// and z2 over a survey area given in square degrees, integrating the
// curvature-correct shell element
//
//	dV_C/dz = Ω · D_H · D_M(z)² / E(z)
//
// (for a flat universe this reduces to (Ω/3)(D_C(z₂)³ − D_C(z₁)³)). The
// transverse comoving distance D_M inside the integrand is itself a
// quadrature, so this is a nested integration — the reason ComoveVol is the
// most expensive of the paper's three case-study UDFs (§6.4 table). It is
// symmetric in its redshift arguments, matching query Q2 where either galaxy
// may be the nearer one.
func (c Cosmology) ComovingVolume(z1, z2, areaSqDeg float64) float64 {
	if z1 > z2 {
		z1, z2 = z2, z1
	}
	if z1 < 0 {
		z1 = 0
	}
	if z1 == z2 {
		return 0
	}
	sr := areaSqDeg * (math.Pi / 180) * (math.Pi / 180)
	dh := c.HubbleDistance()
	integrand := func(z float64) float64 {
		dm := c.TransverseComovingDistance(z)
		return dm * dm / c.efunc(z)
	}
	// Scale the absolute quadrature tolerance to ~1e-8 of a coarse estimate
	// so the tolerance is meaningful across the huge dynamic range of
	// volumes (Mpc³ values reach 10⁸ and beyond).
	rough := math.Abs(integrand((z1+z2)/2)) * (z2 - z1)
	tol := math.Max(1e-12, 1e-8*rough)
	return sr * dh * adaptiveSimpson(integrand, z1, z2, tol)
}

// AngDist returns the great-circle angular distance in degrees between two
// sky positions given in degrees (IDL gcirc), using the Vincenty formula
// for numerical stability at small and antipodal separations.
func AngDist(ra1, dec1, ra2, dec2 float64) float64 {
	const d2r = math.Pi / 180
	l1, l2 := dec1*d2r, dec2*d2r
	dl := (ra2 - ra1) * d2r
	sin1, cos1 := math.Sincos(l1)
	sin2, cos2 := math.Sincos(l2)
	sind, cosd := math.Sincos(dl)
	num := math.Hypot(cos2*sind, cos1*sin2-sin1*cos2*cosd)
	den := sin1*sin2 + cos1*cos2*cosd
	return math.Atan2(num, den) / d2r
}

// --- udf.Func adapters ---

// GalAgeFunc is the 1-D UDF GalAge(redshift) of query Q1.
func GalAgeFunc(c Cosmology) udf.Func {
	return udf.FuncOf{D: 1, F: func(x []float64) float64 {
		return c.GalAge(x[0])
	}}
}

// ComoveVolFunc is the 2-D UDF ComoveVol(z1, z2, AREA) of query Q2 with the
// survey area fixed, matching the paper's two-dimensional usage.
func ComoveVolFunc(c Cosmology, areaSqDeg float64) udf.Func {
	return udf.FuncOf{D: 2, F: func(x []float64) float64 {
		return c.ComovingVolume(x[0], x[1], areaSqDeg)
	}}
}

// AngDistFunc is the 2-D UDF computing the angular distance from a fixed
// reference position to an uncertain position (ra, dec), the form in which
// the paper's case study exercises a 2-D AngDist.
func AngDistFunc(refRA, refDec float64) udf.Func {
	return udf.FuncOf{D: 2, F: func(x []float64) float64 {
		return AngDist(refRA, refDec, x[0], x[1])
	}}
}

// AngDistFunc4 is the full 4-D variant Distance(G1.pos, G2.pos) where both
// positions are uncertain.
func AngDistFunc4() udf.Func {
	return udf.FuncOf{D: 4, F: func(x []float64) float64 {
		return AngDist(x[0], x[1], x[2], x[3])
	}}
}

// Validate reports whether the cosmology is physically sensible.
func (c Cosmology) Validate() error {
	if c.H0 <= 0 {
		return fmt.Errorf("astro: H0 = %g must be positive", c.H0)
	}
	if c.OmegaM < 0 || c.OmegaL < 0 {
		return fmt.Errorf("astro: negative density parameters Ωm=%g ΩΛ=%g", c.OmegaM, c.OmegaL)
	}
	return nil
}
