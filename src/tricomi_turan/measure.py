"""The weight density phi_{a,c} and its integral identities.

For a > 0 and c < 1 the nonnegative density

    phi(t) = t^-c e^-t |psi(a, c, t e^(i pi))|^-2 / (Gamma(a+1) Gamma(a-c+1))

ties the both-shift Turanian ratio to a Stieltjes-type transform,

    D_ac(x)/psi^2(a,c,x) = - int_0^inf t phi(t) / (x+t)^2 dt,

and the first-shift ratio to

    (1+a-c) D_a(x)/psi^2(a,c,x) = 1 - int_0^inf x^2 phi(t) / (x+t)^2 dt.

Its moments have closed forms on their validity regions:

    int phi dt        = 1                  (a > 0, c < 1)
    int t phi dt      = 1 + a - c          (a > 0, c < 1)
    int phi/t dt      = -1/c               (a > 0 > c)
    int phi/t^2 dt    = (c-a)/(c^2 (c+1))  (a > 1, c < -1)

Evaluation.  On the upper edge of the negative axis the connection
formula for psi in terms of Kummer's M and Kummer's transformation
M(a,c,-t) = e^-t M(c-a,c,t) (DLMF 13.2(vii)) leave one complex factor,
the phase of z^(1-c):

    psi(a, c, t e^(i pi)) = e^-t (A M(c-a, c, t)
                                  + B e^(i pi (1-c)) t^(1-c) M(1-a, 2-c, t)),
    A = Gamma(1-c)/Gamma(a-c+1),  B = Gamma(c-1)/Gamma(a),

so |psi|^2 is a sum of two real squares.  ``_neg_axis_core`` sums both
Kummer series over an array of t at once and returns core(t) =
e^-t |psi|^-2 with its relative error: each series' last term and
rounding (2 EPS per unit of its absolute sum), the rounding of A and B
(that of their arguments grows near a pole of Gamma), and the rounding
of the combination and of the phase.  Non-integer c is required, as for
the kernel's connection formula.  phi(t) = t^-c core(t) / (Gamma(a+1)
Gamma(a-c+1)) at a single t uses the same routine.

Every identity is an integral int_0^inf t^(beta-1) phi_0(t) extra(t) dt,
phi_0 = t^c phi, with beta > 0 and extra one of 1, 1/(x+t)^2 and
(x/(x+t))^2.  phi_0 depends on neither x nor beta, so each (a, c) gets
one fixed rule, built on first use and cached (``_phi_table``):

* head, t < t0: there core = (1 + O(t)) / |A + B e^(i pi (1-c)) s|^2,
  s = t^(1-c), whose expansion A^-2 sum_n (-r s)^n U_n(cos pi(1-c))
  (r = B/A, U_n Chebyshev of the second kind) integrates exactly against
  t^(beta-1).  t0 keeps |r| s <= 1/2 and the neglected O(t) terms below
  1e-17 relative.
* body: composite 16-point Gauss-Legendre in w = log t, where
  t^(beta-1) dt = e^(beta w) dw has no endpoint singularity and the
  extras are analytic within pi of the real w axis.  Panels start 2
  wide and are halved, at build time only, while the 8-point
  Gauss-Legendre companion on the same panel differs by more than 1e-15
  of the integral, or by more than the psi noise, at the smallest and
  largest beta the density is used with.
* tail, t > T: core decays like t^(2a) e^-t, T is where
  t^(beta-1+2a) e^-t has fallen below 1e-19 of its integral, and the
  tail is bounded by 2 T^beta phi_0(T) extra(T).

A value is one dot product over the nodes; its abs_error adds the
per-panel companion differences, the per-node error of core and of the
Gamma prefactor, the head's omitted terms and neglected O(t) terms, the
tail bound and the rounding of the sum.  No rule is adaptive per call.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, roots_legendre

from .kernel import (EPS, EvaluationError, FunctionValue, RegionError,
                     _connection_coefficients)

_INTEGRAL = "quadrature"

_GAUSS = 16                 # points of the panel rule; the companion has half
_PANEL_START = 2.0          # initial panel width in w = log t
_PANEL_MIN = 2.0 ** -6      # panels are not halved below this width
_PANEL_TOL = 1e-15          # companion difference per panel / integral
_HEAD_TOL = 1e-17           # neglected O(t) terms of the head, relative
_TAIL_TOL = 1e-19           # tail mass at T relative to the integral
_MAX_TERMS = 10_000


@dataclass(frozen=True)
class WeightDensity:
    """Parameters (a > 0, c < 1) with the log of 1/(Gamma(a+1)Gamma(a-c+1))."""

    a: float
    c: float
    log_prefactor: float = field(init=False)

    def __post_init__(self):
        if not (self.a > 0.0 and self.c < 1.0):
            raise RegionError(
                f"weight density requires a > 0 and c < 1, got a={self.a}, c={self.c}")
        lp = -(gammaln(self.a + 1.0) + gammaln(self.a - self.c + 1.0))
        object.__setattr__(self, "log_prefactor", float(lp))

    @property
    def prefactor(self) -> float:
        return math.exp(self.log_prefactor)


@dataclass(frozen=True)
class MomentIdentity:
    """Closed form of int t^power phi dt together with its region."""

    power: int
    region: Callable[[float, float], bool]
    region_text: str
    form: Callable[[float, float], float]

    def require(self, a: float, c: float) -> None:
        """Raise :class:`RegionError` outside the identity's region."""
        if not self.region(a, c):
            raise RegionError(
                f"moment power {self.power} needs {self.region_text}, "
                f"got a={a}, c={c}")

    def closed_form(self, a: float, c: float) -> float:
        self.require(a, c)
        return self.form(a, c)


MOMENT_IDENTITIES = {m.power: m for m in (
    MomentIdentity(1, lambda a, c: a > 0.0 and c < 1.0, "a > 0, c < 1",
                   lambda a, c: 1.0 + a - c),
    MomentIdentity(0, lambda a, c: a > 0.0 and c < 1.0, "a > 0, c < 1",
                   lambda a, c: 1.0),
    MomentIdentity(-1, lambda a, c: a > 0.0 > c, "a > 0 > c",
                   lambda a, c: -1.0 / c),
    MomentIdentity(-2, lambda a, c: a > 1.0 and c < -1.0, "a > 1, c < -1",
                   lambda a, c: (c - a) / (c * c * (c + 1.0))),
)}


def _kummer_sums(alpha: np.ndarray, gamma: np.ndarray, t: np.ndarray):
    """M(alpha[k], gamma[k], t) for every row k and every t >= 0 at once.

    Returns the sums and their absolute errors: twice the last term plus
    2 EPS per unit of the absolute sum of the terms.  Convergence is
    tested every fourth term and must hold at two tests in a row."""
    n = np.arange(_MAX_TERMS)
    ratio = (alpha[:, None] + n) / ((gamma[:, None] + n) * (n + 1.0))
    term = np.ones((alpha.size, t.size))
    total = term.copy()
    gross = term.copy()
    mag = np.empty_like(term)
    settled = np.zeros(term.shape, dtype=bool)
    for k in range(_MAX_TERMS):
        term *= t
        term *= ratio[:, k:k + 1]
        total += term
        np.abs(term, out=mag)
        gross += mag
        if k % 4 == 3:
            small = mag <= 0.25 * EPS * gross
            if (small & settled).all():
                if not np.isfinite(total).all():
                    raise EvaluationError("Kummer series overflow on the negative "
                                          f"axis up to t={t.max()}")
                return total, 2.0 * mag + 2.0 * EPS * gross
            settled = small
    raise EvaluationError(f"Kummer series did not converge within {_MAX_TERMS} "
                          f"terms up to t={t.max()}")


def _neg_axis_core(d: WeightDensity, t: np.ndarray):
    """core(t) = e^-t |psi(a, c, t e^(i pi))|^-2 over an array t > 0,
    with its relative error."""
    a, c = d.a, d.c
    (coef_a, rel_a), (coef_b, rel_b) = _connection_coefficients(a, c)
    sums, errs = _kummer_sums(np.array([c - a, 1.0 - a]),
                              np.array([c, 2.0 - c]), t)
    scale_p = coef_a * np.exp(-t)
    scale_q = coef_b * np.exp((1.0 - c) * np.log(t) - t)
    p, q = scale_p * sums[0], scale_q * sums[1]
    theta = math.pi * (1.0 - c)
    re = p + q * math.cos(theta)
    im = q * math.sin(theta)
    mod2 = re * re + im * im
    mod = np.sqrt(mod2)
    err = (np.abs(scale_p) * errs[0] + np.abs(scale_q) * errs[1]
           + np.abs(p) * (rel_a + 4.0 * EPS)
           + np.abs(q) * (rel_b + EPS * (4.0 + theta)))
    if not (mod > err).all():
        i = int(np.argmin(mod - err))
        raise EvaluationError(
            f"|psi| indistinguishable from 0 on the negative axis at t={t[i]}")
    rel = err / mod
    return np.exp(-t) / mod2, rel * (2.0 - rel) / (1.0 - rel) ** 2  # of |psi|^-2


def phi(d: WeightDensity, t: float) -> FunctionValue:
    """Density value at t > 0 (always >= 0)."""
    if t <= 0.0:
        raise RegionError(f"density argument must satisfy t > 0, got t={t}")
    core, rel = _neg_axis_core(d, np.array([float(t)]))
    log_scale = d.log_prefactor - d.c * math.log(t)
    value = math.exp(log_scale) * float(core[0])
    rel_scale = EPS * (4.0 + abs(log_scale))
    return FunctionValue(value, value * (float(rel[0]) + rel_scale), _INTEGRAL)


@dataclass(frozen=True, eq=False)
class _Head:
    """int_0^t0 t^(beta-1) phi_0(t) dt from the endpoint expansion
    phi_0 = sum_n coef[n] t^pw[n] (1 + O(t))."""

    t0: float
    coef: np.ndarray       # prefactor A^-2 (-r)^n U_n(cos pi(1-c))
    pw: np.ndarray         # n (1-c)
    rest: float            # omitted terms / first term, bounded by |U_n| <= n+1
    rel: float             # size of the neglected O(t) terms, relative

    def integral(self, beta: float) -> tuple[float, float]:
        pw = beta + self.pw
        terms = self.coef * self.t0 ** pw / pw
        value = float(terms.sum())
        err = (abs(value) * self.rel + abs(float(terms[0])) * self.rest
               + 4.0 * EPS * float(np.abs(terms).sum()))
        return value, err


@dataclass(frozen=True, eq=False)
class _PhiTable:
    """Fixed rule for int_0^inf t^(beta-1) phi_0(t) extra(t) dt, where
    phi_0(t) = t^c phi(t) = prefactor * core(t); see the module docstring."""

    t: np.ndarray          # (panels, 24): 16 Gauss nodes, 8 companion nodes
    v: np.ndarray          # weight * t * phi_0(t); companion weights negated
    e: np.ndarray          # (panels, 16): |v| times the relative error of phi_0
    head: _Head
    tail_t: float          # T
    tail_phi0: float       # phi_0(T)

    def integral(self, beta: float, extra=None) -> tuple[float, float]:
        """Value and absolute error; ``extra`` maps t (an array or a float)
        to the factor beside t^(beta-1) phi_0(t), None meaning 1."""
        g = self.t ** (beta - 1.0)
        if extra is None:
            e0 = e_t0 = e_tail = 1.0
        else:
            g *= extra(self.t)
            e0, e_t0, e_tail = extra(0.0), extra(self.head.t0), extra(self.tail_t)
        vg = self.v * g
        body = vg[:, :_GAUSS]
        head, head_err = self.head.integral(beta)
        value = float(body.sum()) + e0 * head
        err = (float(np.abs(vg.sum(axis=1)).sum())
               + float((self.e * g[:, :_GAUSS]).sum())
               + 32.0 * EPS * float(np.abs(body).sum())
               + abs(e0) * head_err + abs(head) * abs(e_t0 - e0)
               + 2.0 * self.tail_t ** beta * self.tail_phi0 * abs(e_tail))
        return value, err


@lru_cache(maxsize=1)
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]: the 16-point rule, then
    its 8-point companion with negated weights, so that a panel's row sum
    is G16 - G8.  Computed on first use: the eigenvalue solve behind them
    costs memory that programs never building a table need not pay."""
    (x, w), (xc, wc) = roots_legendre(_GAUSS), roots_legendre(_GAUSS // 2)
    return np.concatenate([x, xc]), np.concatenate([w, -wc])


@lru_cache(maxsize=128)
def _phi_table(d: WeightDensity) -> _PhiTable:
    """The fixed rule of density d, built on first use per (a, c)."""
    a, c = d.a, d.c
    (coef_a, _), (coef_b, _) = _connection_coefficients(a, c)
    pref = d.prefactor
    rel_pref = EPS * (4.0 + abs(d.log_prefactor))
    p = 1.0 - c
    betas = np.array([p + min(k for k, m in MOMENT_IDENTITIES.items() if m.region(a, c)),
                      p + 1.0])

    # head: |r| t0^(1-c) <= 1/2, and the O(t) terms of core below _HEAD_TOL
    r = coef_b / coef_a
    slope = abs(c - a) / abs(c) + abs(1.0 - a) / abs(2.0 - c)  # of M(., ., t) at 0
    t0 = max(min(_HEAD_TOL / (1.0 + 6.0 * slope), (0.5 / abs(r)) ** (1.0 / p)), 1e-300)
    rs = abs(r) * t0 ** p
    if rs > 0.9:
        raise EvaluationError(
            f"endpoint expansion of phi does not converge for c={c}")
    n = np.arange(2 + math.ceil(40.0 / -math.log(rs)) if rs > 0.0 else 1)
    theta = math.pi * p
    # core = e^t / |A M1 + B e^(i theta) s M2|^2 and |A + B e^(i theta) s|
    # >= |A| (1 - rs): M = 1 + O(t) moves core by (1+rs)/(1-rs) times more
    head = _Head(t0, pref * (-r) ** n * np.sin((n + 1) * theta)
                 / (math.sin(theta) * coef_a * coef_a), n * p,
                 (n.size + 1) * rs ** n.size / (1.0 - rs) ** 2,
                 2.0 * t0 * (1.0 + 2.0 * (1.0 + rs) / (1.0 - rs) * slope))

    # tail: t^k e^-t, k = beta - 1 + 2a, below _TAIL_TOL of Gamma(k + 1)
    k = betas[1] - 1.0 + 2.0 * a
    tail_t = max(2.0 * k, 40.0)
    while k * math.log(tail_t) - tail_t > gammaln(k + 1.0) + math.log(_TAIL_TOL):
        tail_t *= 1.1

    # body: halve the panels whose companion disagrees, at both betas
    nodes, weights = _panel_rule()
    heads = np.array([head.integral(b)[0] for b in betas])
    w0, w1 = math.log(t0), math.log(tail_t)
    edges = np.linspace(w0, w1, 1 + math.ceil((w1 - w0) / _PANEL_START))
    lo, hi = edges[:-1], edges[1:]
    done, settled = [], np.zeros(2)
    while lo.size:
        half = 0.5 * (hi - lo)
        t = np.exp((0.5 * (lo + hi))[:, None] + half[:, None] * nodes)
        # T rides along: every round reaches t near T anyway
        core, rel = _neg_axis_core(d, np.append(t, tail_t))
        tail_phi0 = pref * float(core[-1])
        v = half[:, None] * weights * t * (pref * core[:-1].reshape(t.shape))
        e = np.abs(v[:, :_GAUSS]) * (rel[:-1].reshape(t.shape)[:, :_GAUSS] + rel_pref)
        g = t ** (betas[:, None, None] - 1.0)
        vg = v * g
        value = vg[..., :_GAUSS].sum(axis=-1)
        companion = np.abs(vg.sum(axis=-1))
        noise = (e * g[..., :_GAUSS]).sum(axis=-1)
        total = np.abs(heads + settled + value.sum(axis=1))
        split = ((companion > np.maximum(_PANEL_TOL * total[:, None], 4.0 * noise))
                 .any(axis=0) & (hi - lo > _PANEL_MIN))
        done.append((t[~split], v[~split], e[~split]))
        settled += value[:, ~split].sum(axis=1)
        mid = 0.5 * (lo + hi)[split]
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
    return _PhiTable(*(np.concatenate(parts) for parts in zip(*done)),
                     head, tail_t, tail_phi0)


def phi_moment(d: WeightDensity, power: int) -> FunctionValue:
    """Value of int t^power phi(t) dt for power in {-2,-1,0,1}.

    Requests outside the moment's validity region are region errors, not
    extrapolations; compare against
    ``MOMENT_IDENTITIES[power].closed_form(a, c)``.
    """
    if power not in MOMENT_IDENTITIES:
        raise RegionError(f"unsupported moment power {power}")
    MOMENT_IDENTITIES[power].require(d.a, d.c)
    value, err = _phi_table(d).integral(power + 1.0 - d.c)
    return FunctionValue(value, err, _INTEGRAL)


def stieltjes_ratio(d: WeightDensity, x: float) -> FunctionValue:
    """- int_0^inf t phi(t) / (x+t)^2 dt.

    Equals the both-shift Turanian ratio computed directly from psi
    values; the two code paths share nothing past the Gamma function, so
    their agreement cross-validates the negative-axis evaluation, the
    quadrature rule and the Turanian arithmetic at once.
    """
    if x <= 0.0:
        raise RegionError(f"x > 0 required, got x={x}")
    value, err = _phi_table(d).integral(2.0 - d.c, lambda t: 1.0 / (x + t) ** 2)
    return FunctionValue(-value, err, _INTEGRAL)


def stieltjes_first_shift(d: WeightDensity, x: float) -> FunctionValue:
    """(1 - int_0^inf x^2 phi(t) / (x+t)^2 dt) / (1 + a - c).

    The first-shift counterpart of :func:`stieltjes_ratio`.
    """
    if x <= 0.0:
        raise RegionError(f"x > 0 required, got x={x}")
    value, err = _phi_table(d).integral(1.0 - d.c, lambda t: (x / (x + t)) ** 2)
    scale = 1.0 + d.a - d.c
    # 2 EPS covers the rounding of 1 - value and of the division
    return FunctionValue((1.0 - value) / scale, (err + 2.0 * EPS) / scale, _INTEGRAL)
