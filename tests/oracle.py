"""Arbitrary-precision references shared by the tests: psi by
``mpmath.hyperu`` and, at large |c| where hyperu fails, psi and its
quotients from the Laplace integral, both at 40 digits."""

import mpmath


def hyperu40(a, c, x):
    """U(a, c, x) by mpmath at 40 digits; the float arguments enter exactly."""
    with mpmath.workdps(40):
        return float(mpmath.hyperu(mpmath.mpf(a), mpmath.mpf(c), mpmath.mpf(x)))


def laplace40(a, c, x):
    """(psi, r, s) at (a, c, x), a > 0 and pw = c - a - 1 != 0, from the
    Laplace integral at 40 digits.  With g = e^(-xt) t^(a-1) (1+t)^pw,
    psi = int g / Gamma(a) and s = int g t / (a int g); r = (x s - 1)/pw,
    since the derivative of e^(-xt) t^a (1+t)^pw, which vanishes at 0 and
    at infinity, integrates to -x int g t + a int g + pw int g t/(1+t) =
    0.  Up to t_l = 0.1/(|pw| + x + 1) both integrals
    are the Taylor series of e^(-xt) (1+t)^pw integrated term by term
    (45 terms, each under 0.1^n of the first); past it ``mpmath.quad``
    takes them in w = log t, as the real and imaginary parts of one
    complex integrand, on intervals of width 6 at most up to where
    x t = 110 + 40 max(a, 1)."""
    with mpmath.workdps(40):
        a, c, x = (mpmath.mpf(v) for v in (a, c, x))
        pw = c - a - 1
        t_l = mpmath.mpf(0.1) / (abs(pw) + x + 1)
        # g t^(1-a) = exp(h), h = (pw - x) t + pw sum_{j>=2} (-1)^(j+1) t^j / j
        h = [0, pw - x] + [pw * (-1) ** (j + 1) / j for j in range(2, 45)]
        coef = [mpmath.mpf(1)]
        for n in range(1, 45):
            coef.append(mpmath.fsum(j * h[j] * coef[n - j] for j in range(1, n + 1)) / n)
        head0 = head1 = 0
        power = t_l ** a
        for n, g_n in enumerate(coef):
            head0 += g_n * power / (a + n)
            power *= t_l
            head1 += g_n * power / (a + n + 1)

        def both(w):
            t = mpmath.exp(w)
            return mpmath.exp(a * w - x * t + pw * mpmath.log1p(t)) * mpmath.mpc(1, t)

        w_l, w_r = mpmath.log(t_l), mpmath.log((110 + 40 * max(a, 1)) / x)
        cuts = mpmath.linspace(w_l, w_r, int(mpmath.ceil((w_r - w_l) / 6)) + 1)
        tail = mpmath.quad(both, cuts, method="gauss-legendre")
        i0, i1 = head0 + tail.real, head1 + tail.imag
        s = i1 / (a * i0)
        return float(i0 / mpmath.gamma(a)), float((x * s - 1) / pw), float(s)
