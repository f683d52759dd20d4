"""Seeded inputs of the three workloads.

Everything here is plain Python and ``math``: the benchmark builds its inputs
without asking isoflow for collapse times.  Where an input needs a collapse
time (export snapshot times, the edge draws of the sweep) it uses the
paper's closed forms directly.

* ``collapse_sweep(seed)``: about 150 ``isoflow collapse`` surfaces over all
  nine families, drawn per stratum with a fixed count, so every seed gives
  the same mix of generic and edge cases, plus the fixed fault cases
  ``FAULTS``, which do not depend on the seed.
* ``export_clouds(seed)``: eight ``isoflow export`` snapshots, two per
  embeddable family, each cloud about 1.27e4 rows.
* ``verify_order(seed, labels)``: the order of the 53 built-in grid surfaces
  within a pass.
"""

from __future__ import annotations

import math
import random

# Seeded draws keep every collapse time inside [TSTAR_MIN, TSTAR_MAX]: below
# about 1e-8 ``isoflow collapse`` crashes and above the ODE horizon (50) it
# exits 4, for every family (see the README).  In hyperbolic space the ODE
# overflows from about 5e-6 down, so draws there stay above
# HYPERBOLIC_TSTAR_MIN.  Near-minimal and kappa -> 1+ draws keep their
# relative distance to the edge at or above EDGE_MIN, where the closed form
# holds 1e-10 and the ODE 1e-7 with a margin of ten.
TSTAR_MIN = 1e-6
HYPERBOLIC_TSTAR_MIN = 1e-4
TSTAR_MAX = 20.0
EDGE_MIN = 1e-5
EDGE_MAX = 1e-2

# Operations that fail on every run because of a named fault in isoflow.
# Each is (name, spec, fault); the README describes each fault.
FAULTS = [
    ("fault-a", {"family": "sphere-umbilic", "n": 2, "kappa": 1e7},
     "ODE t* = 4.848 against 2.5e-15: the guard fires past xi* and "
     "_refine_tstar brackets the next focal zero"),
    ("fault-b", {"family": "hyperbolic-cylinder", "m1": 1, "m2": 1, "kappa1": 1.000000001},
     "exit 2, offset must be finite: closed_form._build_hyperbolic_cylinder "
     "divides by a^2 - 4, which cancels to 0"),
    ("fault-c", {"family": "sphere-product", "l": 1, "n": 3, "kappa1": math.sqrt(2.0) + 1e-8},
     "near-minimal: ODE t* off by about 1e-6 relative"),
    ("fault-d", {"family": "sphere-umbilic", "n": 2, "kappa": 1e4},
     "t* = 2.5e-9 is below the 1e-8 evaluation offset of collapse.analyze, "
     "which then divides by sin(0): uncaught ZeroDivisionError"),
    ("fault-e", {"family": "euclidean-cylinder", "m": 3, "n": 3, "kappa": 0.05},
     "t* = 66.7 lies past the ODE horizon 50: estimate_tstar reports an "
     "eternal flow and analyze exits 4"),
    ("fault-f", {"family": "hyperbolic-umbilic", "n": 2, "kappa": 1e7},
     "a DOP853 trial step overshoots the focal offset and "
     "flow_ode._kappa_hat_total overflows math.sinh: uncaught OverflowError"),
]


def argv(spec):
    """The isoflow flags of a spec; doubles are written with repr, so they parse exactly."""
    out = ["--family", spec["family"]]
    for key, value in spec.items():
        if key == "family":
            continue
        flag = "--" + key.replace("_", "-")
        if key == "mults":
            value = ",".join(str(m) for m in value)
        elif isinstance(value, float):
            value = repr(value)
        out += [flag, str(value)]
    return out


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _log_int(lo, hi, q):
    """The integer at quantile q of a log-uniform draw on [lo, hi]."""
    return int(round(lo * (hi / lo) ** q))


def _small_tstar(rng, lo=TSTAR_MIN):
    return _log_uniform(rng, lo, 1e-2)


def _sign(rng):
    return 1.0 if rng.random() < 0.5 else -1.0


def _euclidean(rng, edge, q):
    n = _log_int(1, 200, q)
    m = rng.randint(1, n)
    if edge == "large-kappa":
        kappa = 1.0 / math.sqrt(2.0 * m * _small_tstar(rng))
    elif edge == "long-flow":
        kappa = 1.0 / math.sqrt(2.0 * m * rng.uniform(2.0, TSTAR_MAX))
    else:
        kappa = _log_uniform(rng, 0.3, 30.0)
    return {"family": "euclidean-cylinder", "m": m, "n": n, "kappa": _sign(rng) * kappa}


def _horosphere(rng, edge, q):
    return {"family": "horosphere", "n": _log_int(1, 200, q), "kappa": _sign(rng)}


def _hyperbolic_umbilic(rng, edge, q):
    n = _log_int(1, 200, q)
    if edge == "eternal":
        kappa = rng.uniform(0.02, 0.98)
    elif edge == "kappa-to-1":
        kappa = 1.0 + _log_uniform(rng, EDGE_MIN, EDGE_MAX)
    elif edge == "large-kappa":
        kappa = 1.0 / math.sqrt(-math.expm1(-2.0 * n * _small_tstar(rng, HYPERBOLIC_TSTAR_MIN)))
    else:
        kappa = rng.uniform(1.05, 10.0)
    return {"family": "hyperbolic-umbilic", "n": n, "kappa": _sign(rng) * kappa}


def _hyperbolic_cylinder(rng, edge, q):
    n = _log_int(2, 200, q)
    m1 = rng.randint(1, n - 1)
    m2 = n - m1
    if edge == "kappa-to-1":
        kappa1 = 1.0 + _log_uniform(rng, EDGE_MIN, EDGE_MAX)
    elif edge == "large-kappa":
        e = math.exp(2.0 * (m1 + m2) * _small_tstar(rng, HYPERBOLIC_TSTAR_MIN))
        kappa1 = math.sqrt((m2 + m1 * e) / (m1 * (e - 1.0)))
    else:
        kappa1 = rng.uniform(1.05, 10.0)
    return {"family": "hyperbolic-cylinder", "m1": m1, "m2": m2, "kappa1": kappa1}


def _sphere_umbilic(rng, edge, q):
    n = _log_int(1, 200, q)
    if edge == "large-kappa":
        kappa = 1.0 / math.sqrt(math.expm1(2.0 * n * _small_tstar(rng)))
    else:
        kappa = _log_uniform(rng, 0.05, 20.0)
    return {"family": "sphere-umbilic", "n": n, "kappa": _sign(rng) * kappa}


def _sphere_product(rng, edge, q):
    n = _log_int(2, 200, q)
    l = rng.randint(1, n - 1)
    threshold = math.sqrt((n - l) / l)
    if edge == "near-minimal":
        kappa1 = threshold * (1.0 + _log_uniform(rng, EDGE_MIN, EDGE_MAX))
    elif edge == "large-kappa":
        q = -math.expm1(-2.0 * n * _small_tstar(rng))
        kappa1 = math.sqrt(n / (l * q) - 1.0)
    else:
        kappa1 = threshold * rng.uniform(1.05, 5.0)
    return {"family": "sphere-product", "l": l, "n": n, "kappa1": kappa1}


# Admissible multiplicities: g = 3 and g = 6 equal, g = 4 (m1, m2, m1, m2).
_G3_MULTS = (1, 2, 4, 8)
_G4_MULTS = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 6), (6, 1), (3, 4), (4, 3),
             (2, 5), (1, 9), (4, 5), (5, 4), (7, 8), (8, 7), (6, 9), (9, 6))


def _sphere_g(g):
    def draw(rng, edge, q):
        if g == 3:
            mults = [_G3_MULTS[int(q * len(_G3_MULTS))]] * 3
        elif g == 6:
            mults = [(1, 2)[int(q * 2)]] * 6
        else:
            m1, m2 = _G4_MULTS[int(q * len(_G4_MULTS))]
            mults = [m1, m2, m1, m2]
        width = math.pi / g
        if edge == "near-minimal" and g != 4:
            # Equal multiplicities are minimal at s = pi / (2 g).
            s = 0.5 * width * (1.0 + _sign(rng) * _log_uniform(rng, EDGE_MIN, EDGE_MAX))
        elif edge == "near-focal":
            # A small ladder parameter puts the leading (or, flipped, the
            # last) block next to its focal offset: t* ~ s^2 / (2 m).
            gap = math.sqrt(2.0 * _log_uniform(rng, 10.0 * TSTAR_MIN, 1e-2))
            s = gap if rng.random() < 0.5 else width - gap
        else:
            s = width * rng.uniform(0.05, 0.95)
        return {"family": f"sphere-g{g}", "kappa1": 1.0 / math.tan(s), "mults": mults}

    return draw


# (draw, [(edge, count), ...]): 140 seeded surfaces per sweep.
STRATA = [
    (_euclidean, [("generic", 6), ("large-kappa", 5), ("long-flow", 5)]),
    (_horosphere, [("generic", 6)]),
    (_hyperbolic_umbilic, [("generic", 4), ("eternal", 4), ("kappa-to-1", 4), ("large-kappa", 4)]),
    (_hyperbolic_cylinder, [("generic", 6), ("kappa-to-1", 5), ("large-kappa", 5)]),
    (_sphere_umbilic, [("generic", 8), ("large-kappa", 8)]),
    (_sphere_product, [("generic", 6), ("near-minimal", 8), ("large-kappa", 6)]),
    (_sphere_g(3), [("generic", 6), ("near-minimal", 5), ("near-focal", 5)]),
    (_sphere_g(4), [("generic", 12), ("near-focal", 8)]),
    (_sphere_g(6), [("generic", 5), ("near-minimal", 5), ("near-focal", 4)]),
]


def collapse_sweep(seed):
    """[(name, spec), ...]: the seeded sweep followed by the fixed fault cases."""
    rng = random.Random(seed)
    ops = []
    for draw, edges in STRATA:
        for edge, count in edges:
            for i in range(count):
                # The size (n, or the multiplicities) is drawn stratified
                # over the stratum's draws: an op's cost grows with it (an
                # eternal hyperbolic umbilic costs about 10 ms at n = 1 and
                # 250 ms at n = 200), and a plain draw would let the cost of
                # a round swing from seed to seed.
                spec = draw(rng, edge, (i + rng.random()) / count)
                ops.append((f"{spec['family']}/{edge}/{i}", spec))
    ops += [(name, spec) for name, spec, _ in FAULTS]
    return ops


# Embeddable families, with grids of about 1.27e4 points each.
# (family spec without curvature, per-axis resolution, ambient dimension)
_CLOUDS = [
    ({"family": "euclidean-cylinder", "m": 2, "n": 3}, (24, 24, 22), 4),
    ({"family": "sphere-product", "l": 1, "n": 3}, (24, 24, 22), 5),
    ({"family": "horosphere", "n": 2}, (113, 112), 4),
    ({"family": "hyperbolic-cylinder", "m1": 2, "m2": 2}, (12, 12, 11, 8), 6),
]
SNAPSHOTS_PER_FAMILY = 2


def paper_tstar(spec):
    """Collapse time of an embeddable family from its closed form (inf if none)."""
    fam = spec["family"]
    if fam == "euclidean-cylinder":
        return 1.0 / (2.0 * spec["m"] * spec["kappa"] ** 2)
    if fam == "sphere-product":
        l, n, k = spec["l"], spec["n"], spec["kappa1"]
        return math.log(l * (k * k + 1.0) / (l * (k * k + 1.0) - n)) / (2.0 * n)
    if fam == "hyperbolic-cylinder":
        m1, m2, k = spec["m1"], spec["m2"], spec["kappa1"]
        return math.log((m1 * k * k + m2) / (m1 * (k * k - 1.0))) / (2.0 * (m1 + m2))
    return math.inf


def export_clouds(seed):
    """[(name, spec, t, resolution, ambient_dim), ...] for one round."""
    rng = random.Random(seed)
    ops = []
    for base, resolution, dim in _CLOUDS:
        spec = dict(base)
        fam = spec["family"]
        if fam == "euclidean-cylinder":
            spec["kappa"] = _sign(rng) * rng.uniform(0.5, 3.0)
        elif fam == "sphere-product":
            spec["kappa1"] = math.sqrt(2.0) * rng.uniform(1.2, 4.0)
        elif fam == "horosphere":
            spec["kappa"] = _sign(rng)
        else:
            spec["kappa1"] = rng.uniform(1.2, 5.0)
        t_star = paper_tstar(spec)
        for j in range(SNAPSHOTS_PER_FAMILY):
            if math.isfinite(t_star):
                t = t_star * rng.uniform(0.05, 0.95)
            else:
                t = rng.uniform(0.1, 2.0)
            ops.append((f"{fam}/{j}", spec, t, resolution, dim))
    return ops


def verify_order(seed, labels):
    """The grid labels in the seeded order of one pass."""
    order = list(labels)
    random.Random(seed).shuffle(order)
    return order
