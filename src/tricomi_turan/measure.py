"""The weight density phi_{a,c} and its integral identities.

For a > 0 and c < 1 the nonnegative density

    phi(t) = t^-c e^-t |psi(a, c, t e^(i pi))|^-2 / (Gamma(a+1) Gamma(a-c+1))

ties the both-shift Turanian ratio to a Stieltjes-type transform,

    D_ac(x)/psi^2(a,c,x) = - int_0^inf t phi(t) / (x+t)^2 dt,

and the first-shift ratio to

    (1+a-c) D_a(x)/psi^2(a,c,x) = 1 - int_0^inf x^2 phi(t) / (x+t)^2 dt;

``stieltjes(kind, d, x)`` evaluates either right-hand side, by the kind.

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
Kummer series over an array of t at once, in blocks of terms, and every
sum retires on its own at the first check (every fourth term) where its
term has stayed below EPS/4 of its absolute sum for two checks: a node
near t = 0 stops after 8 terms while one at t = 70 takes about 150, and a
node's value does not depend on the nodes it is summed with.  It returns
core(t) = e^-t |psi|^-2 with its relative error: each series' last term
and the rounding of its terms, EPS sum_n (4n + 5) |term_n| since term n
is a running product of about 4n roundings, the rounding of A and B
(that of their arguments grows near a pole of Gamma), and the rounding
of the combination and of the phase.  Non-integer c is required, as for
the kernel's connection formula.  phi(t) = t^-c core(t) / (Gamma(a+1)
Gamma(a-c+1)) at a single t uses the same routine.

Every identity is an integral int_0^inf t^(beta-1) phi_0(t) extra(t) dt,
phi_0 = t^c phi, with beta > 0 and extra one of 1, 1/(x+t)^2 and
(x/(x+t))^2.  phi_0 depends on neither x nor beta, so each density gets
one fixed rule, its own ``table``, built by ``_phi_table`` on first use
and kept with it (the default run builds 42 and reads them 880 times).

* head, t < t0: there core = (1 + O(t)) / |A + B e^(i pi (1-c)) s|^2,
  s = t^(1-c), whose expansion A^-2 sum_n (-r s)^n U_n(cos pi(1-c))
  (r = B/A, U_n Chebyshev of the second kind) integrates exactly against
  t^(beta-1).  t0 keeps |r| s <= 1/2 and the neglected O(t) terms below
  1e-17 relative.
* body: composite 16-point Gauss-Legendre in w = log t (nodes and weights
  are constants, equal bit for bit to ``leggauss(16)`` of
  ``numpy.polynomial.legendre``), where t^(beta-1) dt =
  e^(beta w) dw has no endpoint singularity and the extras are analytic
  within pi of the real w axis.  Panels start 2 wide below t = 1 and 1/2
  wide above, near the widths the halving ends at, so that a table takes
  about two passes over its nodes.  They are halved, at build time only,
  while the 8-point Gauss-Legendre companion on the same panel differs by
  more than 1e-15 of the integral, or by more than the psi noise, at the
  smallest and largest beta the density is used with.
* tail, t > T: core decays like t^(2a) e^-t, T is where
  t^(beta-1+2a) e^-t has fallen below 1e-19 of its integral, and the
  tail is bounded by 2 T^beta phi_0(T) extra(T).

A value is one dot product over the nodes; its abs_error adds the
per-panel companion differences, the per-node error of core and of the
Gamma prefactor, the head's omitted terms and neglected O(t) terms, the
tail bound and the rounding of the sum.  No rule is adaptive per call.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kernel import (_FMAX, _TINY, EPS, EvaluationError, FunctionValue, RegionError,
                     _connection_coefficients, log_gamma, log_gamma_error)
from .turanians import Column, TuranianKind

_INTEGRAL = "quadrature"

_GAUSS = 16                 # points of the panel rule; the companion has half
_PANEL_START = (2.0, 0.5)   # initial panel widths in w = log t, below and above t = 1
_PANEL_MIN = 2.0 ** -6      # panels are not halved below this width
_PANEL_TOL = 1e-15          # companion difference per panel / integral
_HEAD_TOL = 1e-17           # neglected O(t) terms of the head, relative
_TAIL_TOL = 1e-19           # tail mass at T relative to the integral
_MAX_TERMS = 10_000
_BLOCKS = (8, 16, 32, 64)   # terms per block of the Kummer sums, the last repeating

# Gauss-Legendre nodes in (0, 1) and their weights, to 17 significant
# digits; both rules are symmetric about 0.  The panel rule on [-1, 1] is
# the 16-point rule, then its 8-point companion with negated weights, so
# that a panel's row sum is G16 - G8.
_G16_X = np.array([0.095012509837637441, 0.28160355077925892, 0.45801677765722737,
                   0.61787624440264377, 0.755404408355003, 0.86563120238783176,
                   0.9445750230732326, 0.98940093499164994])
_G16_W = np.array([0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                   0.14959598881657671, 0.12462897125553407, 0.095158511682492605,
                   0.062253523938647456, 0.027152459411754176])
_G8_X = np.array([0.18343464249564978, 0.52553240991632899, 0.79666647741362673,
                  0.96028985649753618])
_G8_W = np.array([0.36268378337836166, 0.31370664587788688, 0.22238103445337443,
                  0.10122853629037706])
_PANEL_NODES = np.concatenate([-_G16_X[::-1], _G16_X, -_G8_X[::-1], _G8_X])
_PANEL_WEIGHTS = np.concatenate([_G16_W[::-1], _G16_W, -_G8_W[::-1], -_G8_W])


@dataclass(frozen=True)
class WeightDensity:
    """Parameters (finite a > 0, c < 1), the log of 1/(Gamma(a+1)Gamma(a-c+1))
    and its error, and the density's phi table, kept once built; a subnormal
    a or a log-Gamma beyond the double range raises :class:`EvaluationError`."""

    a: float
    c: float
    log_prefactor: float = field(init=False)
    log_prefactor_error: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.a < math.inf and -math.inf < self.c < 1.0):
            raise RegionError(f"weight density requires finite a > 0 and c < 1, "
                              f"got a={self.a}, c={self.c}")
        if self.a < _TINY:    # 1/Gamma(a) ~ a scales psi on the negative axis
            raise EvaluationError(f"weight density at a={self.a}, c={self.c}: a is subnormal")
        zs = (self.a + 1.0, self.a - self.c + 1.0)
        lgs = [log_gamma(z)[0] for z in zs]
        object.__setattr__(self, "log_prefactor", -sum(lgs))
        object.__setattr__(self, "log_prefactor_error", sum(map(log_gamma_error, zs, lgs)))

    @property
    def prefactor(self) -> float:
        return math.exp(self.log_prefactor)

    @cached_property
    def table(self) -> _PhiTable:
        """The density's fixed rule, built on first use; where the build
        raises, the next use builds it again."""
        return _phi_table(self)


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

    Every (row, t) sum runs on its own, in blocks of ``_BLOCKS`` terms:
    the terms are a running product down the block, the running sums are
    taken at every fourth term, and there a sum stops once its term has
    been below EPS/4 of the absolute sum of the terms at two checks in a
    row.  A sum thus depends only on (alpha, gamma, t), never on the other
    sums of the call.  Term n carries about 4n roundings, so the error is
    twice the last term plus EPS sum_n (4n + 5) |term_n|, as in
    ``kernel._m_series``."""
    shape = (alpha.size, t.size)
    row = np.repeat(np.arange(alpha.size), t.size)
    x = np.tile(t, alpha.size)
    live = np.arange(row.size)
    term = np.ones(row.size)
    # running sums of the terms, of |term| and of (4n + 5) |term|
    carry = np.repeat([[1.0], [1.0], [5.0]], row.size, axis=1)
    prev_small = np.zeros(row.size, dtype=bool)
    sums, errs = np.empty(row.size), np.empty(row.size)
    n0 = 0
    for size in itertools.chain(_BLOCKS, itertools.repeat(_BLOCKS[-1])):
        if n0 >= _MAX_TERMS:
            break
        # term n + 1 = term n * ratio_n down axis 0, one column per live sum
        n = n0 + np.arange(size, dtype=float)
        ratio = ((alpha[:, None] + n) / ((gamma[:, None] + n) * (n + 1.0))).T
        buf = np.empty((3, size, live.size))
        terms = buf[0]
        # a term beyond the double range leaves a sum that fails the finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(np.take(ratio, row[live], axis=1), x[live], out=terms)
            terms[0] *= term
            np.cumprod(terms, axis=0, out=terms)
            np.abs(terms, out=buf[1])
            np.multiply(buf[1], (4.0 * n + 9.0)[:, None], out=buf[2])
            # the three running sums at every fourth term, where the checks are
            runs = buf.reshape(3, size // 4, 4, live.size).sum(axis=2)
            runs[:, 0] += carry
            for j in range(1, size // 4):
                runs[:, j] += runs[:, j - 1]
        mag = buf[1, 3::4]
        small = mag <= 0.25 * EPS * runs[1]
        stop = small & np.concatenate([prev_small[None], small[:-1]])
        done = stop.any(axis=0)
        if done.any():
            i = np.flatnonzero(done)
            at = np.argmax(stop[:, i], axis=0)
            k = live[i]
            sums[k] = runs[0, at, i]
            errs[k] = 2.0 * mag[at, i] + EPS * runs[2, at, i]
            if not np.isfinite(sums[k]).all():
                raise EvaluationError("Kummer series overflow on the negative "
                                      f"axis up to t={t.max()}")
        keep = ~done
        live = live[keep]
        if not live.size:
            return sums.reshape(shape), errs.reshape(shape)
        term, carry, prev_small = terms[-1, keep], runs[:, -1, keep], small[-1, keep]
        n0 += size
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
    # |psi|^2 and |psi|^-2 may leave the double range: the checks below raise
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mod2 = re * re + im * im
        core = np.exp(-t) / mod2
    mod = np.sqrt(mod2)
    err = (np.abs(scale_p) * errs[0] + np.abs(scale_q) * errs[1]
           + np.abs(p) * (rel_a + 4.0 * EPS)
           + np.abs(q) * (rel_b + EPS * (4.0 + theta)))
    if not (mod > err).all():
        i = int(np.argmin(mod - err))
        raise EvaluationError(
            f"|psi| indistinguishable from 0 on the negative axis at t={t[i]}")
    if not np.isfinite(core).all():
        i = int(np.argmin(mod2))
        raise EvaluationError(
            f"|psi|^-2 beyond the double range on the negative axis at t={t[i]}")
    rel = err / mod
    return core, rel * (2.0 - rel) / (1.0 - rel) ** 2  # of |psi|^-2


def phi(d: WeightDensity, t: float) -> FunctionValue:
    """Density value at finite t > 0 (always >= 0)."""
    if not 0.0 < t < math.inf:
        raise RegionError(f"density argument must be finite and > 0, got t={t}")
    core, rel = _neg_axis_core(d, np.array([float(t)]))
    log_scale = d.log_prefactor - d.c * math.log(t)
    value = math.exp(log_scale) * float(core[0])
    # phi > 0, so a value of 0 or a subnormal one has underflowed
    if not _TINY <= value <= _FMAX:
        raise EvaluationError(
            f"phi(a={d.a}, c={d.c}, t={t}) is outside the normal double range (got {value})")
    rel_scale = EPS * (4.0 + abs(log_scale)) + d.log_prefactor_error
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

    def integral(self, beta: float, extra=None, xs=()) -> list:
        """Value and absolute error at each x of ``xs``, or the
        :class:`EvaluationError` of an x where either is not a finite
        double; ``extra(x, t)`` is the factor beside t^(beta-1) phi_0(t) at
        x, over a column of x and the nodes at once or at one float t, and
        None means 1, with one value and no x.  Each x's sums are those of
        a call at it alone, each over the same elements in the same
        order."""
        g = self.t ** (beta - 1.0)
        head, head_err = self.head.integral(beta)
        tail = 2.0 * self.tail_t ** beta * self.tail_phi0
        if extra is None:
            gs, ends = g[None], [(1.0, 1.0, 1.0)]
        else:
            gs = g * extra(np.array(xs)[:, None, None], self.t)
            ends = [(extra(x, 0.0), extra(x, self.head.t0), extra(x, self.tail_t)) for x in xs]
        vgs = self.v * gs
        # the contiguous sums of each x as rows of one array, each row
        # summed on its own as that x's array alone would be
        n = len(gs)
        companions = np.abs(vgs.sum(axis=2)).sum(axis=1).tolist()
        noises = (self.e * gs[:, :, :_GAUSS]).reshape(n, -1).sum(axis=1).tolist()
        sizes = np.abs(vgs[:, :, :_GAUSS]).reshape(n, -1).sum(axis=1).tolist()
        out = []
        for vg, companion, noise, size, (e0, e_t0, e_tail) in zip(
                vgs, companions, noises, sizes, ends):
            value = float(vg[:, :_GAUSS].sum()) + e0 * head
            err = (companion + noise + 32.0 * EPS * size
                   + abs(e0) * head_err + abs(head) * abs(e_t0 - e0) + tail * abs(e_tail))
            out.append((value, err) if math.isfinite(value) and math.isfinite(err) else
                       EvaluationError(f"phi integral at beta={beta} is not a finite double "
                                       f"(got {value} +- {err})"))
        return out


def _phi_table(d: WeightDensity) -> _PhiTable:
    """The fixed rule of density d."""
    a, c = d.a, d.c
    (coef_a, _), (coef_b, _) = _connection_coefficients(a, c)
    pref = d.prefactor
    rel_pref = EPS * (4.0 + abs(d.log_prefactor)) + d.log_prefactor_error
    p = 1.0 - c
    betas = np.array([p + min(k for k, m in MOMENT_IDENTITIES.items() if m.region(a, c)),
                      p + 1.0])

    # head: |r| t0^(1-c) <= 1/2, and the O(t) terms of core below _HEAD_TOL
    r = coef_b / coef_a
    slope = abs(c - a) / abs(c) + abs(1.0 - a) / abs(2.0 - c)  # of M(., ., t) at 0
    try:
        cut = (0.5 / abs(r)) ** (1.0 / p)
    except OverflowError:
        raise EvaluationError(f"endpoint expansion of phi: cutoff (0.5/|r|)^(1/(1-c)) "
                              f"overflows for a={a}, c={c}") from None
    t0 = max(min(_HEAD_TOL / (1.0 + 6.0 * slope), cut), 1e-300)
    rs = abs(r) * t0 ** p
    if rs > 0.9:
        raise EvaluationError(
            f"endpoint expansion of phi does not converge for c={c}")
    n = np.arange(2 + math.ceil(40.0 / -math.log(rs)) if rs > 0.0 else 1)
    theta = math.pi * p
    # A^-2 may leave the double range, or pref underflow to 0 against it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coef = (pref * (-r) ** n * np.sin((n + 1) * theta)
                / (math.sin(theta) * coef_a * coef_a))
    if not np.isfinite(coef).all():
        raise EvaluationError(f"endpoint expansion of phi overflows for a={a}, c={c}")
    # core = e^t / |A M1 + B e^(i theta) s M2|^2 and |A + B e^(i theta) s|
    # >= |A| (1 - rs): M = 1 + O(t) moves core by (1+rs)/(1-rs) times more
    head = _Head(t0, coef, n * p, (n.size + 1) * rs ** n.size / (1.0 - rs) ** 2,
                 2.0 * t0 * (1.0 + 2.0 * (1.0 + rs) / (1.0 - rs) * slope))

    # tail: t^k e^-t, k = beta - 1 + 2a, below _TAIL_TOL of Gamma(k + 1)
    k = betas[1] - 1.0 + 2.0 * a
    tail_t = max(2.0 * k, 40.0)
    while k * math.log(tail_t) - tail_t > log_gamma(k + 1.0)[0] + math.log(_TAIL_TOL):
        tail_t *= 1.1
    # every power t^(beta-1) the rule takes, and T^beta, lies below
    # T^betas[1]; the tail bound doubles it
    if not betas[1] * math.log(tail_t) < math.log(0.5 * _FMAX):
        raise EvaluationError(f"phi table for a={a}, c={c}: t^{betas[1]} overflows "
                              f"the double range at T={tail_t}")

    # body: halve the panels whose companion disagrees, at both betas
    heads = np.array([head.integral(b)[0] for b in betas])
    w0, w1 = math.log(t0), math.log(tail_t)
    # t0 < 1 < T; the panels start near the widths the halving ends at
    edges = np.concatenate([np.linspace(w0, 0.0, 1 + math.ceil(-w0 / _PANEL_START[0])),
                            np.linspace(0.0, w1, 1 + math.ceil(w1 / _PANEL_START[1]))[1:]])
    lo, hi = edges[:-1], edges[1:]
    done, settled, tail_phi0 = [], np.zeros(2), None
    while lo.size:
        half = 0.5 * (hi - lo)
        t = np.exp((0.5 * (lo + hi))[:, None] + half[:, None] * _PANEL_NODES)
        # T rides along with the first round
        core, rel = _neg_axis_core(d, np.append(t, [tail_t] if tail_phi0 is None else []))
        if tail_phi0 is None:
            tail_phi0 = pref * float(core[-1])
        v = half[:, None] * _PANEL_WEIGHTS * t * (pref * core[:t.size].reshape(t.shape))
        e = np.abs(v[:, :_GAUSS]) * (rel[:t.size].reshape(t.shape)[:, :_GAUSS] + rel_pref)
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
    (got,) = d.table.integral(power + 1.0 - d.c)
    if isinstance(got, Exception):
        raise got
    return FunctionValue(*got, _INTEGRAL)


# the extra factor of each kind's transform, at x over t
_EXTRAS = {TuranianKind.BOTH_SHIFT: lambda x, t: 1.0 / (x + t) ** 2,
           TuranianKind.FIRST_SHIFT: lambda x, t: (x / (x + t)) ** 2}


def _x_error(kind: TuranianKind, x: float) -> Exception | None:
    """The error ``stieltjes`` raises at x before it reads the table."""
    if x <= 0.0:
        return RegionError(f"x > 0 required, got x={x}")
    if kind not in _EXTRAS:
        return ValueError(f"no Stieltjes form of the {kind.value}-shift ratio")
    if kind is TuranianKind.BOTH_SHIFT and not _TINY <= x * x <= _FMAX:
        return EvaluationError(f"x^2 in 1/(x+t)^2 is outside the normal double range at x={x}")
    return None


def stieltjes_column(kind: TuranianKind, d: WeightDensity, xs) -> Column:
    """``stieltjes`` at each x of ``xs``, as a ``turanians.Column`` up to
    the first x where it raises, with that error: each x's value and
    error are those of ``stieltjes`` at it alone, the integrals one array
    expression over the x before it (``_PhiTable.integral``).  Where the
    table cannot be built, its error is raised at once, as at the first
    x."""
    n, error = len(xs), None
    for i, x in enumerate(xs):
        error = _x_error(kind, x)
        if error is not None:
            n = i
            break
    if not n:
        return Column([], [], error)
    values, errors = [], []
    scale = 1.0 + d.a - d.c
    first = kind is TuranianKind.FIRST_SHIFT
    for got in d.table.integral((1.0 if first else 2.0) - d.c, _EXTRAS[kind], xs[:n]):
        if isinstance(got, Exception):
            return Column(values, errors, got)
        value, err = got
        # 2 EPS covers the rounding of 1 - value and of the division
        values.append((1.0 - value) / scale if first else -value)
        errors.append((err + 2.0 * EPS) / scale if first else err)
    return Column(values, errors, error)


def stieltjes(kind: TuranianKind, d: WeightDensity, x: float) -> FunctionValue:
    """The Turanian ratio of ``kind`` at (a, c, x) as a transform of phi:

        both shifts   - int_0^inf t phi(t) / (x+t)^2 dt
        first shift   (1 - int_0^inf x^2 phi(t) / (x+t)^2 dt) / (1 + a - c)

    Each equals the ratio computed directly from psi values; the two code
    paths share nothing past the Gamma function, so their agreement
    cross-validates the negative-axis evaluation, the quadrature rule and
    the Turanian arithmetic at once.  The second shift has no such form
    here and raises ValueError; x <= 0 raises :class:`RegionError`.  The
    one-x case of ``stieltjes_column``.
    """
    column = stieltjes_column(kind, d, (x,))
    if column.error is not None:
        raise column.error
    return FunctionValue(column.values[0], column.errors[0], _INTEGRAL)
