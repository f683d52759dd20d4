"""Built-in verification grid and cross-checks.

The grid spans all nine families (about fifty instances, including flipped
orientations and minimal surfaces).  Checks cross-validate the closed-form
profiles against the numerical ODE engine, the collapse analysis against the
catalog's predicted focal dimensions, and the algebraic identities the
curvature parametrizations must satisfy.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import catalog, closed_form, collapse, embedding, flow_ode
from .catalog import (
    IsoparametricSurface,
    make_euclidean_cylinder,
    make_horosphere,
    make_hyperbolic_cylinder,
    make_hyperbolic_umbilic,
    make_minimal,
    make_sphere_product,
    make_sphere_umbilic,
    sphere_curvature_ladder,
    sphere_curvatures_from_g,
    sphere_family_from_kappa1,
)
from .errors import IsoflowError, UnsupportedEmbeddingError
from .spaceform import EUCLIDEAN, HYPERBOLIC, SPHERE, _inverse_slope, cs_eval

ORACLE_TOL = 1e-8
ODE_RESIDUAL_TOL = 1e-6
TSTAR_TOL = 1e-7
PYTHAGOREAN_TOL = 1e-10
XI_ZERO_TOL = 1e-12
# The closed form reaches the focal offset exactly at t* (about 1e-15
# relative); 1e-6 is the stated focal-residual bound.
FOCAL_LIMIT_TOL = 1e-6
# verify only compares the engines on this window; analyze needs the longer
# collapse.ETERNAL_CHECK_TIME (50) to judge the limit, 5x the oracle's work here.
ETERNAL_WINDOW = 10.0


@dataclass(frozen=True)
class CheckResult:
    check: str
    label: str
    passed: bool
    detail: str


def builtin_grid():
    """Labelled surfaces spanning every family, including flipped and minimal ones."""
    grid = []

    def add(label, surface):
        grid.append((label, surface))

    for m, n, k in [(2, 2, 1.0), (1, 2, 1.0), (1, 3, -2.0), (2, 3, 0.7),
                    (3, 3, 1.5), (1, 4, 0.5), (2, 5, -0.9)]:
        add(f"euclidean m={m} n={n} kappa={k}", make_euclidean_cylinder(m, n, k))
    for n, k in [(1, 1.0), (3, 1.0), (2, -1.0), (5, -1.0)]:
        add(f"horosphere n={n} kappa={k}", make_horosphere(n, k))
    for n, k in [(2, 2.0), (2, 0.5), (3, -0.8), (1, 0.3), (2, -3.0), (4, 1.5), (1, 1.2)]:
        add(f"hyperbolic umbilic n={n} kappa={k}", make_hyperbolic_umbilic(n, k))
    for m1, m2, k1 in [(1, 1, 2.0), (2, 3, 3.0), (1, 2, 1.5), (3, 1, 1.2), (2, 2, 2.5)]:
        add(f"hyperbolic cylinder m1={m1} m2={m2} kappa1={k1}",
            make_hyperbolic_cylinder(m1, m2, k1))
    for n, k in [(2, 1.0), (2, -1.0), (3, 2.0), (5, 0.3), (4, -0.7)]:
        add(f"sphere umbilic n={n} kappa={k}", make_sphere_umbilic(n, k))
    for l, n, k1 in [(1, 2, 2.0), (2, 5, 2.0), (1, 3, 1.5), (3, 7, 1.3), (2, 4, 1.1)]:
        add(f"sphere product l={l} n={n} kappa1={k1}", make_sphere_product(l, n, k1))
    add("sphere g2 flipped s=1.2 mults=(1,2)", sphere_curvatures_from_g(2, 1.2, [1, 2]))
    for m, k1 in [(1, 2.0), (2, 3.0), (4, 1.2), (8, 5.0), (1, 1.0)]:
        add(f"sphere g3 m={m} kappa1={k1}", sphere_family_from_kappa1(3, k1, [m] * 3))
    for m1, m2, k1 in [(1, 1, 3.0), (2, 1, 2.6), (1, 2, 4.0), (2, 2, 3.0),
                       (1, 1, 2.0), (3, 2, 3.2)]:
        add(f"sphere g4 m1={m1} m2={m2} kappa1={k1}",
            sphere_family_from_kappa1(4, k1, [m1, m2, m1, m2]))
    for m, k1 in [(1, 4.0), (2, 5.0), (1, 2.0), (2, 3.0), (1, 6.0)]:
        add(f"sphere g6 m={m} kappa1={k1}", sphere_family_from_kappa1(6, k1, [m] * 6))
    add("minimal clifford", make_minimal(SPHERE, [(1.0, 1), (-1.0, 1)]))
    add("minimal equator n=3", make_minimal(SPHERE, [(0.0, 3)]))
    add("minimal g3 kappa1=sqrt3",
        make_minimal(SPHERE, sphere_family_from_kappa1(3, math.sqrt(3.0)).blocks,
                     family="sphere_g3"))
    return grid


def _window_end(t_star):
    """End of the forward sample window: 0.99 t*, or ETERNAL_WINDOW for eternal flows."""
    return 0.99 * t_star if math.isfinite(t_star) else ETERNAL_WINDOW


# ---------------------------------------------------------------------------
# per-instance checks

@dataclass
class Case:
    """One surface with what its checks share, each computed on first read.

    ``profile`` is its closed form, ``quadrature`` the (t*, error bound)
    that ``flow_ode.estimate_tstar`` computes, and ``report`` the collapse
    analysis of the closed form.  A property that raises caches nothing, so
    every check that reads it raises again and fails on its own.
    """

    label: str
    surface: IsoparametricSurface
    opts: flow_ode.OdeOptions = flow_ode.DEFAULT_OPTIONS

    @functools.cached_property
    def profile(self):
        return closed_form.resolve_profile(self.surface)

    @functools.cached_property
    def quadrature(self):
        return flow_ode._collapse_time(self.surface, *collapse.focal_blocks(self.surface))

    @functools.cached_property
    def report(self):
        return collapse.analyze(self.surface, self.profile)


def check_validation(case):
    rebuilt = catalog.surface_from_dict(case.surface.to_dict())
    return rebuilt.to_dict() == case.surface.to_dict(), "JSON round-trip re-validates"


def check_oracle_agreement(case):
    profile = case.profile
    ts = np.linspace(0.0, _window_end(profile.t_star), 200)
    numeric = flow_ode.integrate(case.surface, float(ts[-1]), case.opts,
                                 _quadrature=case.quadrature)
    diff = float(np.max(np.abs(profile.xi(ts) - numeric.xi(ts))))
    return diff <= ORACLE_TOL, f"max |xi_closed - xi_ode| = {diff:.3e} (tol {ORACLE_TOL:g})"


def _ode_residual(surface, profile):
    """Worst |d xi/dt - H(xi)| at 100 times of the window, d xi/dt by a five-point stencil."""
    t_star = profile.t_star
    hi = _window_end(t_star)
    margin = hi / 200.0
    ts = np.linspace(margin, hi - margin, 100)
    # Stencil step shrinks toward the collapse time, where the higher
    # derivatives of xi grow like (t* - t)^(1/2 - order).
    h = np.minimum(1e-5, (t_star - ts) / 400.0)
    # One xi call on the (100, 5) stencil array; columns t+2h, t+h, t-h, t-2h, t.
    x = profile.xi(ts[:, None] + h[:, None] * np.array([2.0, 1.0, -1.0, -2.0, 0.0]))
    deriv = (-x[:, 0] + 8 * x[:, 1] - 8 * x[:, 2] + x[:, 3]) / (12.0 * h)
    return float(np.max(np.abs(deriv - catalog.mean_curvature(surface, x[:, 4]))))


def check_ode_residual(case):
    worst = _ode_residual(case.surface, case.profile)
    return worst <= ODE_RESIDUAL_TOL, f"max |d xi/dt - H| = {worst:.3e} (tol {ODE_RESIDUAL_TOL:g})"


def check_tstar_consistency(case):
    t_closed, t_num = case.profile.t_star, case.quadrature[0]
    if math.isinf(t_closed) or math.isinf(t_num):
        return math.isinf(t_closed) and math.isinf(t_num), f"closed {t_closed}, ode {t_num}"
    diff = abs(t_closed - t_num)
    return diff <= TSTAR_TOL, f"|t*_closed - t*_ode| = {diff:.3e} (tol {TSTAR_TOL:g})"


def check_focal_dimension(case):
    report = case.report
    expected = collapse.focal_dimension_expected(case.surface)
    if expected is None:
        return True, f"no stated claim (limit {report.limit_kind})"
    return (report.focal_dimension == expected,
            f"analyze {report.focal_dimension} vs predicted {expected}")


def check_focal_condition(case):
    """Focal identity at the exact collapse limit: the degenerate block's
    curvature equals the cot/coth/1-over slope of xi(t*)."""
    surface, profile = case.surface, case.profile
    if not math.isfinite(profile.t_star):
        return True, "eternal flow"
    k_deg = surface.blocks[case.report.degenerate_block_index].kappa
    residual = abs(_inverse_slope(surface.space_form, profile.xi_star) - k_deg)
    return (residual <= FOCAL_LIMIT_TOL,
            f"|slope(xi*) - kappa_deg| = {residual:.3e} (tol {FOCAL_LIMIT_TOL:g})")


def check_pythagorean(case):
    profile = case.profile
    if profile.angle_pair(0.0) is None:
        return True, "family has no pair form"
    kbar = case.surface.space_form.curvature  # the pair is circular for 1, hyperbolic for -1
    t_star = profile.t_star
    hi = t_star if math.isfinite(t_star) else ETERNAL_WINDOW
    # Hyperbolic pairs grow exponentially backward in time; keep the sampled
    # window where the identity is representable in doubles.
    lo = -2.0 / case.surface.n if kbar == -1 else -2.0
    co, si = profile.angle_pair(np.linspace(lo, hi, 1000))
    worst = float(np.max(np.abs(co * co + kbar * (si * si) - 1.0)))
    return (worst <= PYTHAGOREAN_TOL,
            f"max |pair identity residual| = {worst:.3e} (tol {PYTHAGOREAN_TOL:g})")


def check_xi_zero(case):
    value = abs(case.profile.xi(0.0))
    return value <= XI_ZERO_TOL, f"|xi(0)| = {value:.3e} (tol {XI_ZERO_TOL:g})"


def check_embedding_constraints(case):
    try:
        embedding.get_embedding(case.surface)
    except UnsupportedEmbeddingError:
        return True, "no embedding"
    profile = case.profile
    t_star = profile.t_star
    times = [0.0, 0.5, 1.0] if math.isinf(t_star) else [0.0, 0.5 * t_star, 0.9 * t_star]
    # Each SampledSurface checks its quadric to 1e-10; deque(maxlen=0) drops it at once.
    deque(embedding.snapshots(case.surface, 4, times, profile), maxlen=0)
    return True, f"frames on the quadric at {len(times)} times"


INSTANCE_CHECKS = {
    "validation": check_validation,
    "oracle-agreement": check_oracle_agreement,
    "ode-residual": check_ode_residual,
    "tstar-consistency": check_tstar_consistency,
    "focal-dimension": check_focal_dimension,
    "focal-condition": check_focal_condition,
    "pythagorean": check_pythagorean,
    "xi-zero": check_xi_zero,
    "embedding-constraints": check_embedding_constraints,
}


# ---------------------------------------------------------------------------
# global checks

def _g_param_grid(g, count=20):
    lo, hi = 0.02, math.pi / g - 0.02
    return np.linspace(lo, hi, count)


def a_formula(g: int, kappa1: float) -> float:
    """Closed-form sum of the g = 3, 4, 6 distinct curvatures in terms of kappa1."""
    k = kappa1
    if g == 3:
        return 3.0 * k * (k * k - 3.0) / (3.0 * k * k - 1.0)
    if g == 4:
        return (k**4 - 6.0 * k * k + 1.0) / (k * (k * k - 1.0))
    if g == 6:
        # The printed single-fraction form misses an overall factor 3; the
        # repaired expression below equals 6 cot(6 s), the true sum.
        return 3.0 * (k**6 - 15.0 * k**4 + 15.0 * k * k - 1.0) / (
            k * (k * k - 3.0) * (3.0 * k * k - 1.0)
        )
    raise ValueError(g)


def check_curvature_parametrization():
    """Cotangent-ladder consistency across the spherical families."""
    worst = {"pair": 0.0, "kappa4": 0.0, "a": 0.0, "cyl": 0.0}
    for g in (2, 3, 4, 6):
        for s in _g_param_grid(g):
            ladder = sphere_curvature_ladder(g, float(s))
            k1 = ladder[0]
            if g == 2:
                worst["pair"] = max(worst["pair"], abs(ladder[0] * ladder[1] + 1.0))
            if g == 4:
                explicit = (k1, (k1 - 1.0) / (k1 + 1.0), -1.0 / k1,
                            -(k1 + 1.0) / (k1 - 1.0))
                worst["kappa4"] = max(
                    worst["kappa4"],
                    max(abs(x - y) for x, y in zip(ladder, explicit)),
                )
            if g in (3, 4, 6):
                worst["a"] = max(worst["a"], abs(sum(ladder) - a_formula(g, k1)))
    for k1 in np.linspace(1.1, 6.0, 25):
        kappa1, kappa2 = make_hyperbolic_cylinder(1, 1, k1).curvatures
        worst["cyl"] = max(worst["cyl"], abs(kappa1 * kappa2 - 1.0))
    ok = (
        worst["pair"] <= 1e-12
        and worst["kappa4"] <= 1e-10
        and worst["a"] <= 1e-9
        and worst["cyl"] <= 1e-12
    )
    detail = (
        f"kappa1*kappa2+1: {worst['pair']:.2e}; g4 ladder vs explicit: "
        f"{worst['kappa4']:.2e}; sum vs a-formula: {worst['a']:.2e}; "
        f"cylinder product: {worst['cyl']:.2e}"
    )
    return ok, detail


def check_typo_resolution():
    """Recorded resolutions of the two printed collapse-time discrepancies.

    The hyperbolic-cylinder collapse time with the 1/(2n) prefactor must equal
    the value derived from ell(t*) = kappa1 - kappa2; the two printed forms of
    the g=4 collapse time must agree.
    """
    worst_cyl = 0.0
    for m1, m2 in [(1, 1), (2, 3), (1, 2), (3, 1), (2, 2)]:
        n = m1 + m2
        for k1 in np.linspace(1.1, 5.0, 15):
            k2 = 1.0 / k1
            stated = math.log((m1 * k1 * k1 + m2) / (m1 * (k1 * k1 - 1.0))) / (2 * n)
            derived = math.log((m1 * k1 + m2 * k2) / (m1 * (k1 - k2))) / (2 * n)
            worst_cyl = max(worst_cyl, abs(stated - derived))
    worst_g4 = 0.0
    for m1, m2 in [(1, 1), (2, 1), (1, 2), (3, 2), (2, 2)]:
        n = 2 * (m1 + m2)
        for k1 in np.linspace(2.6, 6.0, 15):
            a = a_formula(4, k1)
            b = 2.0 * (m1 - m2) * (k1 * k1 + 1.0) ** 2 / (n * k1 * (k1 * k1 - 1.0))
            if a + b <= 0:
                continue
            t_ab = math.log((b + math.sqrt(a * a + 16.0)) / (a + b)) / (4 * n)
            denom = m1 * (k1 * k1 + 1.0) ** 2 - 2.0 * n * k1 * k1
            t_prose = math.log(m1 * (k1 * k1 + 1.0) ** 2 / denom) / (4 * n)
            worst_g4 = max(worst_g4, abs(t_ab - t_prose))
    return (worst_cyl <= 1e-12 and worst_g4 <= 1e-10,
            f"cylinder t* forms: {worst_cyl:.2e}; g4 t* forms: {worst_g4:.2e}")


_CHUNK = 2**14


def check_cs_identity():
    """c^2 + kbar s^2 = 1 within 4 ulp of the largest intermediate.

    Each ambient takes the n = 10**6 // 3 evenly spaced offsets
    i (20 / n) - 10 on [-10, 10) in 2^14 chunks on a reused buffer, in about
    1 MB, and each chunk is worked in place; the intermediate is >= 1, so its
    ulp is 2^-52 times its exponent bits, and dividing by it is exact.
    """
    count = 10**6 // 3
    steps, offsets = np.arange(_CHUNK, dtype=float), np.empty(_CHUNK)
    worst = 0.0
    for kbar, sf in ((-1, HYPERBOLIC), (0, EUCLIDEAN), (1, SPHERE)):
        for start in range(0, count, _CHUNK):
            xi = offsets[:min(_CHUNK, count - start)]
            np.add(steps[:len(xi)], start, out=xi)
            xi *= 20 / count
            xi -= 10.0
            c, s = cs_eval(sf, xi)
            c *= c
            s *= s if kbar else 0.0
            ulp = np.maximum(c, s)
            np.maximum(ulp, 1.0, out=ulp)
            ulp.view(np.uint64)[...] &= np.uint64(0x7FF0_0000_0000_0000)
            ulp *= 2.0**-52
            (np.subtract if kbar < 0 else np.add)(c, s, out=c)
            c -= 1.0
            np.abs(c, out=c)
            c /= ulp
            worst = max(worst, float(np.max(c)))
    return worst <= 4.0, f"max identity residual = {worst:.2f} ulp (tol 4)"


GLOBAL_CHECKS = {
    "curvature-parametrization": check_curvature_parametrization,
    "typo-resolution": check_typo_resolution,
    "identities": check_cs_identity,
}

ALL_CHECKS = tuple(INSTANCE_CHECKS) + tuple(GLOBAL_CHECKS)


def run_verification(surfaces=None, checks=None, opts=None):
    """Run the requested checks; returns a list of CheckResult, check by check.

    Each check gives (passed, detail); its name is its key in INSTANCE_CHECKS
    or GLOBAL_CHECKS.  Each surface is one Case, so the checks share its
    profile, quadrature and collapse report.  An instance check that raises
    an IsoflowError gives a FAIL naming the error.
    """
    if checks is None:
        checks = ALL_CHECKS
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; available: {sorted(ALL_CHECKS)}")
    if surfaces is None:
        surfaces = builtin_grid()
    cases = [Case(label, surface, opts or flow_ode.DEFAULT_OPTIONS) for label, surface in surfaces]
    results = []
    for name in checks:
        if name in GLOBAL_CHECKS:
            results.append(CheckResult(name, "global", *GLOBAL_CHECKS[name]()))
            continue
        fn = INSTANCE_CHECKS[name]
        for case in cases:
            try:
                passed, detail = fn(case)
            except IsoflowError as exc:  # a check that cannot finish fails
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            results.append(CheckResult(name, case.label, passed, detail))
    return results
