"""References for the exact spectral checks: the mpmath versions
`locsys.spectral` used before its chamber limits, circle counts and cone
series identities became exact, and the chamber-cone membership test that
the package runs only inside `cone_direct_sum`.  The differential tests
compare against them; nothing in the package imports this module."""

import itertools

import mpmath

from locsys import spectral


def cone_indicator(sizes, order, H) -> bool:
    """Membership of an integer vector in the chamber cone: the dual-basis
    weight values must be <=0 at ascent positions and >0 at descents."""
    return spectral._in_cone(spectral._cone_walls(sizes, order), sum(sizes), order, H)


class NumericInstability(RuntimeError):
    """A limit or quadrature did not converge to the requested tolerance."""


def chamber_sum_at(mu_values, cfuncs, r):
    """sum over chamber orderings of theta^{-1} times the product of the
    c-functions over the chamber's positive pairs."""
    total = mpmath.mpf(0)
    for order in itertools.permutations(range(r)):
        theta = mpmath.mpf(1)
        for a in range(r - 1):
            theta *= mu_values[order[a]] - mu_values[order[a + 1]]
        prod = mpmath.mpf(1)
        for a in range(r):
            for b in range(a + 1, r):
                i, j = order[a], order[b]
                prod *= cfuncs[(i, j)](mu_values[i] / mu_values[j])
        total += prod / theta
    return total


def chamber_limit(r, cfuncs, dps=50):
    """Numeric limit of the chamber sum at 1: sums at t = 2^-5 .. 2^-10 along
    mu_i = exp(xi_i t), Neville-extrapolated to t = 0."""
    with mpmath.workdps(dps):
        xi = [mpmath.mpf(2 * k + 1) / (3 * k + 2) for k in range(r)]
        shift = sum(xi) / r
        xi = [x - shift for x in xi]
        ts = [mpmath.mpf(1) / 2 ** (5 + j) for j in range(6)]
        tbl = [chamber_sum_at([mpmath.exp(x * t) for x in xi], cfuncs, r) for t in ts]
        previous = None
        for j in range(1, len(ts)):
            for i in range(len(ts) - 1, j - 1, -1):
                tbl[i] = (tbl[i - 1] * ts[i] - tbl[i] * ts[i - j]) / (ts[i] - ts[i - j])
            previous = tbl[-2]
        limit = tbl[-1]
        if abs(limit - previous) > max(abs(limit), 1) * mpmath.mpf(10) ** -8:
            raise NumericInstability("chamber-limit extrapolation did not settle")
        return limit


def finite_difference(f, dps=50):
    with mpmath.workdps(dps):
        h = mpmath.mpf(10) ** (-dps // 3)
        return (f(1 + h) - f(1 - h)) / (2 * h)


def root_moduli(coeffs):
    """Moduli of the roots by mpmath.polyroots."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        return []
    coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(coeffs)]
    try:
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=60)
    except mpmath.libmp.NoConvergence:
        # multiple roots converge slowly
        roots = mpmath.polyroots(coeffs, maxsteps=2000, extraprec=400)
    return [abs(root) for root in roots]


def roots_inside(coeffs):
    """Roots inside the unit circle by mpmath.polyroots; a root within 1e-9
    of the circle is a ValueError."""
    moduli = root_moduli(coeffs)
    if any(abs(m - 1) < 1e-9 for m in moduli):
        raise ValueError("root too close to the unit circle")
    return sum(1 for m in moduli if m < 1)


def _log_deriv(num, den, z):
    """f'/f at z for f = num/den (coefficient lists, low to high)."""
    n = sum(c * z ** i for i, c in enumerate(num) if c)
    dn = sum(i * c * z ** (i - 1) for i, c in enumerate(num) if i and c)
    d = sum(c * z ** i for i, c in enumerate(den) if c)
    dd = sum(i * c * z ** (i - 1) for i, c in enumerate(den) if i and c)
    return dn / n - dd / d


def circle_integral(c12, c21, tol=1e-6):
    """(1/2 pi) int_0^{2 pi} Re(w c12'/c12(w) + c21'(1/w)/(w c21(1/w))) dtheta
    by mpmath.quad, for `RationalFunc`s."""

    def integrand(theta):
        w = mpmath.exp(1j * theta)
        return (_log_deriv(c12.num, c12.den, w) * w
                + _log_deriv(c21.num, c21.den, 1 / w) / w).real

    with mpmath.workdps(30):
        val, err = mpmath.quad(integrand, [0, 2 * mpmath.pi], error=True)
        if err > mpmath.mpf(tol) / 10:
            raise NumericInstability(f"quadrature error estimate {err} too large")
        return val / (2 * mpmath.pi)


def cone_closed_form(h_tilde, order, lam):
    """lambda^{h_tilde} / prod over chamber-adjacent pairs (1 - lam_u/lam_v)."""
    value = mpmath.mpf(1)
    for i, h in enumerate(h_tilde):
        value = value * mpmath.mpc(lam[i]) ** h
    for u, v in zip(order, order[1:]):
        value = value / (1 - mpmath.mpc(lam[u]) / mpmath.mpc(lam[v]))
    return value


def cone_series_errors(h_tilde, order, lam, direct_sums):
    """|direct sum - closed form| for each truncation, and the tail bound
    scale * rho^depth * depth^r * 16 / (1 - rho)^r at depth 14."""
    closed = cone_closed_form(h_tilde, order, lam)
    r = len(order)
    ratios = []
    for u, v in zip(order, order[1:]):
        q = abs(mpmath.mpc(lam[u]) / mpmath.mpc(lam[v]))
        ratios.append(q if u < v else 1 / q)
    rho = max(ratios) if ratios else mpmath.mpf(0)
    scale = max(abs(closed), mpmath.mpf(1))
    tail = scale * rho ** 14 * 14 ** r * 16 / (1 - rho) ** r
    return [abs(s - closed) for s in direct_sums], tail


def cone_degree_one_identity(h_tilde, order, lam):
    r = len(order)
    with mpmath.workdps(40):
        closed = cone_closed_form(h_tilde, order, lam)
        direct = mpmath.mpf(1)
        for x in lam:
            direct = direct * mpmath.mpc(x)
        for u, v in zip(order, order[1:]):
            direct = direct / (mpmath.mpc(lam[u]) - mpmath.mpc(lam[v]))
        direct = direct * (-1) ** (r - 1)
        scale = max(abs(closed), abs(direct), mpmath.mpf(1))
        return abs(closed - direct) < scale * mpmath.mpf(10) ** -30


def cone_fourier_average_check(sizes, e, lam, floor_vector, dps=60):
    """(1/n) sum_k zeta^{ek} S(lam * zeta^k) = S_e(lam) within 10^-(dps-20);
    floor_vector(order, e) gives h_tilde."""
    n = sum(sizes)
    with mpmath.workdps(dps):
        zeta = mpmath.exp(2j * mpmath.pi / n)
        for order in itertools.permutations(range(len(sizes))):
            want = cone_closed_form(floor_vector(order, e % n), order, lam)
            acc = mpmath.mpc(0)
            for k in range(1, n + 1):
                lam_k = [mpmath.mpc(x) * zeta ** k for x in lam]
                full = sum(cone_closed_form(floor_vector(order, ep), order, lam_k)
                           for ep in range(n))
                acc += zeta ** (e * k) * full
            acc /= n
            if abs(acc - want) > mpmath.mpf(10) ** (-dps + 20):
                return False
    return True
