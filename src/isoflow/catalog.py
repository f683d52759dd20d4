"""Curvature data for every isoparametric family, with constructors and validators.

An isoparametric hypersurface is stored as its ambient space form plus an
ordered list of (principal curvature, multiplicity) blocks.  Constructors
cover: Euclidean cylinders/spheres, horospheres, the other totally umbilic
hyperbolic hypersurfaces, hyperbolic cylinders, umbilic spheres, products of
spheres and the spherical families with g in {2, 3, 4, 6} distinct
curvatures.  Validation enforces the classification constraints (g restricted
to 1, 2, 3, 4, 6 on the sphere, curvature patterns pinned by the g-fold
cotangent parametrization, kappa1*kappa2 = -1 for products of spheres and
kappa1*kappa2 = 1 for hyperbolic cylinders) rather than deriving them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .spaceform import (
    EUCLIDEAN,
    HYPERBOLIC,
    SPHERE,
    SpaceForm,
    parallel_curvature,
    parallel_metric_factor,
)

# |sum(m_i kappa_i)| below this counts as a minimal hypersurface.
MINIMAL_TOL = 1e-10

# Distinct blocks must be separated by more than this.
BLOCK_SEPARATION_TOL = 1e-9

# Tolerance for curvature-pattern validation (cotangent ladder, pair products).
PATTERN_TOL = 1e-8

@dataclass(frozen=True)
class Block:
    """One principal curvature with its multiplicity."""

    kappa: float
    mult: int

    def __post_init__(self):
        if not isinstance(self.mult, int) or isinstance(self.mult, bool) or self.mult < 1:
            raise InvalidInputError(f"multiplicity must be a positive integer, got {self.mult!r}")
        if not math.isfinite(self.kappa):
            raise InvalidInputError(f"curvature must be finite, got {self.kappa!r}")


@dataclass(frozen=True)
class IsoparametricSurface:
    """Immutable initial datum of a flow: ambient + curvature blocks.

    Blocks keep the conventional order of their family (largest curvature
    first for the curved ambients; the curved block first for Euclidean
    cylinders).  Nothing downstream relies on the order.
    """

    space_form: SpaceForm
    blocks: tuple
    family: str

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        _validate_surface(self)

    @property
    def n(self) -> int:
        return sum(b.mult for b in self.blocks)

    @property
    def g(self) -> int:
        return len(self.blocks)

    @property
    def curvatures(self) -> tuple:
        return tuple(b.kappa for b in self.blocks)

    @property
    def mean_curvature_at_zero(self) -> float:
        return float(sum(b.mult * b.kappa for b in self.blocks))

    @property
    def is_minimal(self) -> bool:
        return abs(self.mean_curvature_at_zero) < MINIMAL_TOL

    def flipped(self) -> "IsoparametricSurface":
        """The same geometry with the opposite normal: all curvatures negated.

        Blocks are re-ordered so the largest curvature of the flipped surface
        comes first.
        """
        neg = [Block(0.0 if b.kappa == 0.0 else -b.kappa, b.mult) for b in reversed(self.blocks)]
        if self.space_form.curvature == 0 and len(neg) == 2 and neg[0].kappa == 0.0:
            neg = neg[::-1]  # keep the curved block first for cylinders
        return IsoparametricSurface(self.space_form, tuple(neg), self.family)

    def parallel_surface(self, xi: float) -> "IsoparametricSurface":
        """The parallel hypersurface at offset xi as a new initial datum."""
        evolved = tuple(
            Block(float(parallel_curvature(self.space_form, b.kappa, xi)), b.mult)
            for b in self.blocks
        )
        return IsoparametricSurface(self.space_form, evolved, self.family)

    def to_dict(self) -> dict:
        return {
            "space_form": self.space_form.curvature,
            "blocks": [{"kappa": b.kappa, "mult": b.mult} for b in self.blocks],
            "family": self.family,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def surface_from_dict(data: dict) -> IsoparametricSurface:
    """Rebuild a surface from its JSON document, re-running all validation."""
    try:
        sf = SpaceForm(int(data["space_form"]))
        blocks = tuple(Block(float(b["kappa"]), int(b["mult"])) for b in data["blocks"])
        family = str(data["family"])
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed surface document: {exc}") from exc
    return IsoparametricSurface(sf, blocks, family)


def surface_from_json(text: str) -> IsoparametricSurface:
    return surface_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# validation

def _cot(x: float) -> float:
    return math.cos(x) / math.sin(x)


def sphere_curvature_ladder(g: int, s: float):
    """The g curvatures cot(s + (j-1) pi / g), j = 1..g, in descending order."""
    return tuple(_cot(s + (j - 1) * math.pi / g) for j in range(1, g + 1))


# family -> (ambient curvature, admissible block counts); None imposes nothing.
_FAMILY_SHAPE = {
    "euclidean_cylinder": (0, (1, 2)),
    "horosphere": (-1, (1,)),
    "hyperbolic_umbilic": (-1, (1,)),
    "hyperbolic_cylinder": (-1, (2,)),
    "sphere_umbilic": (1, (1,)),
    "sphere_g2": (1, (2,)),
    "sphere_g3": (1, (3,)),
    "sphere_g4": (1, (4,)),
    "sphere_g6": (1, (6,)),
    "minimal": None,
}
KNOWN_FAMILIES = tuple(_FAMILY_SHAPE)


def _validate_surface(surface: IsoparametricSurface):
    blocks = surface.blocks
    if not blocks:
        raise InvalidInputError("surface needs at least one curvature block")
    if surface.family not in KNOWN_FAMILIES:
        raise InvalidInputError(
            f"unknown family tag {surface.family!r}; expected one of {KNOWN_FAMILIES}"
        )
    shape = _FAMILY_SHAPE[surface.family]
    if shape is not None:
        want_kbar, want_g = shape
        if surface.space_form.curvature != want_kbar or len(blocks) not in want_g:
            raise InvalidInputError(
                f"family {surface.family!r} does not fit ambient curvature "
                f"{surface.space_form.curvature} with {len(blocks)} blocks"
            )
        if surface.family == "horosphere" and abs(blocks[0].kappa) != 1.0:
            raise InvalidInputError("horosphere blocks must have kappa = +-1")
    kappas = [b.kappa for b in blocks]
    for i in range(len(kappas)):
        for j in range(i + 1, len(kappas)):
            if abs(kappas[i] - kappas[j]) <= BLOCK_SEPARATION_TOL:
                raise InvalidInputError(
                    f"blocks {i} and {j} are not separated: {kappas[i]} vs {kappas[j]}"
                )
    kbar = surface.space_form.curvature
    g = len(blocks)
    if kbar == 1:
        _validate_spherical(surface)
    elif kbar == -1:
        if g > 2:
            raise InvalidInputError(
                f"a hyperbolic isoparametric hypersurface has at most 2 distinct "
                f"curvatures, got {g}"
            )
        if g == 2:
            prod = kappas[0] * kappas[1]
            if abs(prod - 1.0) > PATTERN_TOL:
                raise InvalidInputError(
                    f"hyperbolic cylinder needs kappa1*kappa2 = 1, got {prod}"
                )
    else:
        if g > 2:
            raise InvalidInputError(
                f"a Euclidean isoparametric hypersurface has at most 2 distinct "
                f"curvatures, got {g}"
            )
        if g == 2 and min(abs(k) for k in kappas) > BLOCK_SEPARATION_TOL:
            raise InvalidInputError(
                "a two-block Euclidean surface must have one zero-curvature block"
            )


def _clifford_delta(m: int) -> int:
    """delta(m): 1, 2, 4, 4, 8, 8, 8, 8 for m = 1..8, and delta(m + 8) = 16 delta(m)."""
    return 16 ** ((m - 1) // 8) * (1, 2, 4, 4, 8, 8, 8, 8)[(m - 1) % 8]


def _g4_pair_exists(m1: int, m2: int) -> bool:
    """The g=4 classification (Ferus-Karcher-Muenzner 1981, Stolz 1999,
    Cecil-Chi-Jensen 2007, Immervoll 2008, Chi 2020): {m1, m2} is an FKM pair
    {m, k delta(m) - m - 1} for some k >= 1, or one of {2, 2} and {4, 5}."""
    if {m1, m2} in ({2}, {4, 5}):
        return True
    return any((m1 + m2 + 1) % _clifford_delta(m) == 0 for m in (m1, m2))


def _validate_spherical(surface: IsoparametricSurface):
    g = surface.g
    if g not in (1, 2, 3, 4, 6):
        raise InvalidInputError(
            f"the number of distinct curvatures on the sphere is restricted to "
            f"1, 2, 3, 4 or 6, got {g}"
        )
    if g == 1:
        return
    desc = sorted(surface.blocks, key=lambda b: -b.kappa)
    kappas = [b.kappa for b in desc]
    mults = [b.mult for b in desc]
    if g == 2:
        prod = kappas[0] * kappas[1]
        if abs(prod + 1.0) > PATTERN_TOL:
            raise InvalidInputError(
                f"a two-curvature spherical surface needs kappa1*kappa2 = -1, got {prod}"
            )
        return
    if g == 3:
        if len(set(mults)) != 1 or mults[0] not in (1, 2, 4, 8):
            raise InvalidInputError(
                f"g=3 multiplicities must be equal and in {{1,2,4,8}}, got {mults}"
            )
    elif g == 4:
        if mults[0] != mults[2] or mults[1] != mults[3]:
            raise InvalidInputError(
                f"g=4 multiplicities must satisfy m1=m3 and m2=m4, got {mults}"
            )
        if not _g4_pair_exists(mults[0], mults[1]):
            raise InvalidInputError(
                f"no g=4 hypersurface has multiplicities {{{mults[0]}, {mults[1]}}}: "
                f"they must be an FKM pair {{m, k delta(m) - m - 1}}, {{2, 2}} or {{4, 5}}"
            )
    else:  # g == 6
        if len(set(mults)) != 1 or mults[0] not in (1, 2):
            raise InvalidInputError(
                f"g=6 multiplicities must be equal and in {{1,2}}, got {mults}"
            )
    s = math.atan2(1.0, kappas[0])
    if not 0.0 < s < math.pi / g:
        raise InvalidInputError(
            f"leading curvature {kappas[0]} outside the open g={g} range"
        )
    expected = sphere_curvature_ladder(g, s)
    for k_have, k_want in zip(kappas, expected):
        if abs(k_have - k_want) > PATTERN_TOL * (1.0 + abs(k_want)):
            raise InvalidInputError(
                f"g={g} curvatures do not follow the cotangent ladder: "
                f"got {kappas}, expected {expected}"
            )


# ---------------------------------------------------------------------------
# constructors

def _positive_int(value, name):
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InvalidInputError(f"{name} must be a positive integer, got {value!r}")
    return value


def make_euclidean_cylinder(m: int, n: int, kappa: float) -> IsoparametricSurface:
    """Cylinder (or sphere if m = n) in Euclidean space: m curvatures kappa, n-m zeros."""
    _positive_int(m, "m")
    _positive_int(n, "n")
    if m > n:
        raise InvalidInputError(f"need m <= n, got m={m}, n={n}")
    kappa = float(kappa)
    if kappa == 0.0:
        raise InvalidInputError(
            "kappa = 0 is a totally geodesic plane; build it with make_minimal"
        )
    blocks = [Block(kappa, m)]
    if m < n:
        blocks.append(Block(0.0, n - m))
    return IsoparametricSurface(EUCLIDEAN, tuple(blocks), "euclidean_cylinder")


def make_horosphere(n: int, kappa: float) -> IsoparametricSurface:
    """Horosphere in hyperbolic space: all curvatures equal to +1 or -1."""
    _positive_int(n, "n")
    kappa = float(kappa)
    if kappa not in (-1.0, 1.0):
        raise InvalidInputError(
            f"a horosphere has kappa = +-1, got {kappa}; other values are umbilic "
            "hypersurfaces (make_hyperbolic_umbilic)"
        )
    return IsoparametricSurface(HYPERBOLIC, (Block(kappa, n),), "horosphere")


def make_hyperbolic_umbilic(n: int, kappa: float) -> IsoparametricSurface:
    """Totally umbilic hypersurface of hyperbolic space with |kappa| not in {0, 1}."""
    _positive_int(n, "n")
    kappa = float(kappa)
    if kappa == 0.0 or abs(kappa) == 1.0:
        raise InvalidInputError(
            f"kappa={kappa} is a geodesic hyperplane or horosphere; handled elsewhere"
        )
    return IsoparametricSurface(HYPERBOLIC, (Block(kappa, n),), "hyperbolic_umbilic")


def make_hyperbolic_cylinder(m1: int, m2: int, kappa1: float) -> IsoparametricSurface:
    """Hyperbolic cylinder: m1 curvatures kappa1 > 1 and m2 curvatures 1/kappa1."""
    _positive_int(m1, "m1")
    _positive_int(m2, "m2")
    kappa1 = float(kappa1)
    if not kappa1 > 1.0:
        raise InvalidInputError(f"hyperbolic cylinder needs kappa1 > 1, got {kappa1}")
    blocks = (Block(kappa1, m1), Block(1.0 / kappa1, m2))
    return IsoparametricSurface(HYPERBOLIC, blocks, "hyperbolic_cylinder")


def make_sphere_umbilic(n: int, kappa: float) -> IsoparametricSurface:
    """Totally umbilic hypersurface of the sphere with kappa != 0."""
    _positive_int(n, "n")
    kappa = float(kappa)
    if kappa == 0.0:
        raise InvalidInputError(
            "kappa = 0 is the minimal equator; build it with make_minimal"
        )
    return IsoparametricSurface(SPHERE, (Block(kappa, n),), "sphere_umbilic")


def make_sphere_product(l: int, n: int, kappa1: float) -> IsoparametricSurface:
    """Non-minimal product of spheres: curvatures kappa1 (mult l) and -1/kappa1 (mult n-l)."""
    _positive_int(l, "l")
    _positive_int(n, "n")
    if n <= l:
        raise InvalidInputError(f"need n > l, got l={l}, n={n}")
    kappa1 = float(kappa1)
    threshold = math.sqrt((n - l) / l)
    if not kappa1 > threshold:
        raise InvalidInputError(
            f"kappa1 = {kappa1} is not in the non-minimal branch: need "
            f"kappa1 > sqrt((n-l)/l) = {threshold}; equality is the minimal "
            "Clifford case (make_minimal)"
        )
    blocks = (Block(kappa1, l), Block(-1.0 / kappa1, n - l))
    return IsoparametricSurface(SPHERE, blocks, "sphere_g2")


_G_MULT_RULES = {
    2: "any positive pair (l, n-l)",
    3: "equal multiplicities in {1,2,4,8}",
    4: "positive (m1, m2, m1, m2)",
    6: "equal multiplicities in {1,2}",
}


def sphere_curvatures_from_g(g: int, s_param: float, mults=None) -> IsoparametricSurface:
    """Spherical family with g distinct curvatures cot(s + (j-1) pi/g).

    ``s_param`` must lie in (0, pi/g); ``mults`` defaults to all ones and must
    satisfy the multiplicity pattern of the family (see _G_MULT_RULES).
    """
    if g not in (2, 3, 4, 6):
        raise InvalidInputError(f"g must be one of 2, 3, 4, 6, got {g!r}")
    s = float(s_param)
    if not 0.0 < s < math.pi / g:
        raise InvalidInputError(f"s must lie in (0, pi/{g}), got {s}")
    if mults is None:
        mults = [1] * g
    mults = [int(m) for m in mults]
    if len(mults) != g or any(m < 1 for m in mults):
        raise InvalidInputError(
            f"g={g} needs {g} positive multiplicities ({_G_MULT_RULES[g]}), got {mults}"
        )
    kappas = sphere_curvature_ladder(g, s)
    blocks = tuple(Block(k, m) for k, m in zip(kappas, mults))
    return IsoparametricSurface(SPHERE, blocks, f"sphere_g{g}")


def sphere_family_from_kappa1(g: int, kappa1: float, mults=None) -> IsoparametricSurface:
    """Same as sphere_curvatures_from_g with s = arccot(kappa1)."""
    if g not in (2, 3, 4, 6):
        raise InvalidInputError(f"g must be one of 2, 3, 4, 6, got {g!r}")
    s = math.atan2(1.0, float(kappa1))
    if not s < math.pi / g:
        raise InvalidInputError(
            f"kappa1 = {kappa1} is below the g={g} range: need kappa1 > cot(pi/{g})"
        )
    return sphere_curvatures_from_g(g, s, mults)


def make_minimal(space_form: SpaceForm, blocks, family: str = "minimal") -> IsoparametricSurface:
    """Validate and build a minimal surface: sum(m_i kappa_i) must vanish.

    Flow engines return the constant profile xi = 0 for these.
    """
    blocks = tuple(b if isinstance(b, Block) else Block(float(b[0]), int(b[1])) for b in blocks)
    h = sum(b.mult * b.kappa for b in blocks)
    if abs(h) >= MINIMAL_TOL:
        raise InvalidInputError(
            f"not minimal: |sum(m_i kappa_i)| = {abs(h):.3e} >= {MINIMAL_TOL:g}"
        )
    return IsoparametricSurface(space_form, blocks, family)


# ---------------------------------------------------------------------------
# evaluation

def mean_curvature(surface: IsoparametricSurface, xi):
    """Mean curvature of the parallel surface at offset xi: sum of m_i kappa_hat_i.

    At xi = 0 this is the (unnormalized) mean curvature sum(m_i kappa_i).
    Raises SingularParallelError at a focal offset.
    """
    sf = surface.space_form
    total = None
    for b in surface.blocks:
        term = np.asarray(parallel_curvature(sf, b.kappa, xi)) * b.mult
        total = term if total is None else total + term
    if np.ndim(xi) == 0:
        return float(total)
    return total


@dataclass(frozen=True)
class FlowState:
    """Snapshot of an evolving surface: offset, curvatures, mean curvature, factors."""

    t: float
    xi: float
    kappa_hat: tuple
    mean_curvature: float
    factors: tuple


def flow_state(surface: IsoparametricSurface, xi: float, t: float = 0.0) -> FlowState:
    sf = surface.space_form
    hats = tuple(float(parallel_curvature(sf, b.kappa, xi)) for b in surface.blocks)
    h = float(sum(b.mult * k for b, k in zip(surface.blocks, hats)))
    facts = tuple(float(parallel_metric_factor(sf, b.kappa, xi)) for b in surface.blocks)
    return FlowState(t=float(t), xi=float(xi), kappa_hat=hats, mean_curvature=h, factors=facts)
