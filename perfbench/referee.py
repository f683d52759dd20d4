"""Arbitrary-precision referee for collapse times, offsets and focal limits.

Works from the curvature blocks alone, with mpmath at ``DPS`` digits, and
shares no code with isoflow.  The flow offset solves xi' = H(xi) with

    H(zeta) = sum_i m_i kappa_hat_i(zeta),

and every evolved curvature is written through its focal offset phi_i, so it
stays exact next to the focal point:

    kbar = 0:   kappa_hat = 1 / (phi - zeta),           phi = 1 / kappa
    kbar = +1:  kappa_hat = cot(phi - zeta),            phi = arccot(kappa) (- pi)
    kbar = -1:  kappa_hat = coth(r - zeta) for |kappa| > 1, r = artanh(1 / kappa)
                kappa_hat = tanh(r - zeta) for |kappa| < 1, r = artanh(kappa)
                kappa_hat = kappa          for |kappa| = 1.

The collapse time is t* = int_0^{xi*} dzeta / H(zeta), with xi* the focal
offset nearest to 0 in the flow direction sign(H(0)).  The integrand 1/H
vanishes linearly at xi*, so the quadrature runs in the distance u = |xi* -
zeta| to that offset, by Gauss-Legendre quadrature with mpmath's error
estimate.  Near-minimal surfaces put a near-pole of 1/H just outside
u = |xi*|; geometric break points towards that end keep the quadrature
accurate there.  xi(t) inverts t(xi) by safeguarded Newton steps.
"""

from __future__ import annotations

import mpmath as mp

DPS = 30

# |sum m_i kappa_i| below this is a minimal (stationary) surface.
MINIMAL_H0 = 1e-10


class Flow:
    """The offset ODE of one surface, given as (kbar, [(kappa, mult), ...])."""

    def __init__(self, kbar, blocks):
        self.kbar = int(kbar)
        with mp.workdps(DPS):
            self.blocks = [(mp.mpf(k), int(m)) for k, m in blocks]
            self.h0 = mp.fsum(k * m for k, m in self.blocks)
            self.direction = 0 if abs(self.h0) < MINIMAL_H0 else (1 if self.h0 > 0 else -1)
            self._terms = [self._term(k) for k, _ in self.blocks]
            focal = [(abs(phi), i) for i, (_, _, phi) in enumerate(self._terms)
                     if phi is not None]
            if self.direction == 0 or not focal:
                self.xi_star = None
                self.degenerate = ()
            else:
                near = min(a for a, _ in focal)
                self.xi_star = self.direction * near
                self.degenerate = tuple(
                    i for a, i in focal if abs(a - near) <= mp.mpf(10) ** (-DPS + 8) * (1 + near)
                )

    def _term(self, k):
        """(kind, anchor, focal offset in the flow direction or None) of curvature k."""
        d = self.direction
        if self.kbar == 0:
            if k == 0:
                return ("flat", None, None)
            phi = 1 / k
            return ("inv", phi, phi if d and phi * d > 0 else None)
        if self.kbar == 1:
            theta = mp.acot(k) if k != 0 else mp.pi / 2
            if theta < 0:
                theta += mp.pi
            phi = theta if d >= 0 else theta - mp.pi
            return ("cot", phi, phi if d else None)
        if abs(k) == 1:
            return ("const", k, None)
        if abs(k) < 1:
            return ("tanh", mp.atanh(k), None)
        r = mp.atanh(1 / k)
        return ("coth", r, r if d and r * d > 0 else None)

    def _hat(self, term, gap):
        """Evolved curvature at anchor distance gap = anchor - zeta."""
        kind, anchor, _ = term
        if kind == "flat":
            return mp.mpf(0)
        if kind == "const":
            return anchor
        if kind == "inv":
            return 1 / gap
        if kind == "cot":
            return mp.cot(gap)
        if kind == "tanh":
            return mp.tanh(gap)
        return mp.coth(gap)

    def H(self, zeta):
        with mp.workdps(DPS):
            zeta = mp.mpf(zeta)
            return mp.fsum(
                m * self._hat(term, (term[1] - zeta) if term[1] is not None else None)
                for term, (_, m) in zip(self._terms, self.blocks)
            )

    def _H_from_focal(self, u):
        """H at zeta = xi* - direction * u, with exact gaps at the focal blocks."""
        d = self.direction
        total = mp.mpf(0)
        for term, (_, m) in zip(self._terms, self.blocks):
            anchor = term[1]
            gap = None if anchor is None else (anchor - self.xi_star) + d * u
            total += m * self._hat(term, gap)
        return total

    @property
    def eternal(self):
        return self.xi_star is None

    def _breaks(self, lo, hi):
        """Break points on [lo, hi] (in u) graded towards the near-pole past hi."""
        pts = [lo, hi]
        if self.direction == 0:
            return pts
        slope = mp.fsum(m * (k**2 + self.kbar) for k, m in self.blocks)
        if slope == 0:
            return pts
        dist = abs(self.h0 / slope)  # near-pole of 1/H at zeta ~ -H(0)/H'(0)
        span = hi - lo
        if dist >= span:
            return pts
        inner = []
        step = span / 2
        while step > dist / 4 and len(inner) < 60:
            inner.append(hi - step)
            step /= 4
        return [lo] + sorted(p for p in inner if lo < p < hi) + [hi]

    def time_between(self, u_lo, u_hi):
        """Flow time to move from distance u_hi to distance u_lo of xi*."""
        with mp.workdps(DPS):
            def f(u):
                return 1 / abs(self._H_from_focal(u))

            val, err = mp.quad(f, self._breaks(mp.mpf(u_lo), mp.mpf(u_hi)),
                               method="gauss-legendre", error=True)
            if not err <= abs(val) * mp.mpf(10) ** (10 - DPS):
                raise ArithmeticError(f"referee quadrature did not converge (err {err})")
            return val

    def t_star(self):
        """Collapse time as an mpf, or None for a flow without finite collapse."""
        if self.eternal:
            return None
        with mp.workdps(DPS):
            return self.time_between(0, abs(self.xi_star))

    def time_at(self, xi):
        """t(xi) = int_0^xi dzeta / H(zeta) for xi between 0 and xi*."""
        with mp.workdps(DPS):
            xi = mp.mpf(xi)
            if self.eternal:
                def f(z):
                    return 1 / self.H(z)

                return mp.quad(f, [0, xi], method="gauss-legendre")
            u0 = abs(self.xi_star)
            u1 = abs(self.xi_star - xi)
            return self.time_between(u1, u0)

    def xi_at(self, t):
        """xi(t) for 0 <= t < t*, by Newton steps on t(xi) inside a bracket."""
        with mp.workdps(DPS):
            t = mp.mpf(t)
            if self.direction == 0 or t == 0:
                return mp.mpf(0)
            d = self.direction
            if self.eternal:
                lo, hi = mp.mpf(0), mp.mpf(0)
                step = abs(self.h0) * t + 1
                while self.time_at(d * step) < t:
                    lo = step
                    step *= 2
                hi = step
            else:
                lo, hi = mp.mpf(0), abs(self.xi_star)
            x = min(abs(self.h0) * t, (lo + hi) / 2)
            for _ in range(200):
                r = self.time_at(d * x) - t
                if r > 0:
                    hi = x
                else:
                    lo = x
                nxt = x - r * abs(self.H(d * x))
                if not lo < nxt < hi:
                    nxt = (lo + hi) / 2
                if abs(nxt - x) <= abs(x) * mp.mpf(10) ** (-DPS + 6):
                    return d * nxt
                x = nxt
            raise ArithmeticError("referee xi(t) inversion did not converge")

    def limit(self):
        """(limit_kind, focal_dimension) the flow converges to."""
        n = sum(m for _, m in self.blocks)
        if self.direction == 0:
            return "eternal", None
        if self.eternal:
            if all(t[0] == "const" for t in self._terms):
                return "eternal", None
            return "totally_geodesic_limit", None
        if len(self.degenerate) == len(self.blocks):
            return "point", 0
        return "focal_submanifold", n - sum(self.blocks[i][1] for i in self.degenerate)


def rel_err(value, exact):
    """|value - exact| / |exact| in double precision."""
    with mp.workdps(DPS):
        return float(abs(mp.mpf(value) - exact) / abs(exact))
