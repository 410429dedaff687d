"""Truncated formal power series over an exact commutative coefficient ring.

The ring is duck-typed: coefficients must support +, -, * among themselves
and * by int/Fraction.  Rationals, LaurentPoly and FreePoly all qualify.
A product of two series is polyq's truncated product of their coefficient
lists.  exp uses the standard derivative recurrence, which only ever divides
by integers, so everything stays exact.

No command calls exp: `spectral.chamber_limit_exact` writes exp(x t) in
closed form, x^k / k!, and counting._exp_coeff_concrete takes the
coefficients the master formula needs in integer arithmetic, for concrete and
symbolic tables alike.  exp is the reference the tests compare both with.
Inverses, integer powers and division by scalars (field coefficients) let
`spectral.chamber_limit_exact` evaluate c-functions on truncated series.
"""

from __future__ import annotations

from fractions import Fraction

from . import polyq


def _is_zero(c):
    if hasattr(c, "is_zero"):
        return c.is_zero()
    return c == 0


class TruncatedSeries:
    """Coefficients of z^0..z^cap; arithmetic silently truncates at cap."""

    __slots__ = ("cap", "coeffs")

    def __init__(self, cap: int, coeffs):
        coeffs = list(coeffs)
        if cap < 0:
            raise ValueError("cap must be >= 0")
        if len(coeffs) != cap + 1:
            raise ValueError(f"need exactly {cap + 1} coefficients")
        self.cap = cap
        self.coeffs = coeffs

    @classmethod
    def from_terms(cls, cap, terms, zero):
        """terms: iterable of (exponent, coefficient); out-of-cap terms drop."""
        coeffs = [zero] * (cap + 1)
        for e, c in terms:
            if 0 <= e <= cap:
                coeffs[e] = coeffs[e] + c
        return cls(cap, coeffs)

    def _zero(self):
        return self.coeffs[0] * 0

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.cap == other.cap and all(
            _is_zero(a - b) for a, b in zip(self.coeffs, other.coeffs)
        )

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            if other.cap != self.cap:
                raise ValueError("mixed truncation caps")
            return TruncatedSeries(self.cap, [a + b for a, b in zip(self.coeffs, other.coeffs)])
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + other
        return TruncatedSeries(self.cap, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.cap, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -1 * other)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            if other.cap != self.cap:
                raise ValueError("mixed truncation caps")
            # a coefficient no product reaches is int 0 there: put it in the ring
            zero = self._zero()
            out = polyq.mul(self.coeffs, other.coeffs, self.cap + 1)
            return TruncatedSeries(self.cap, [zero + c for c in out])
        return TruncatedSeries(self.cap, [c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __rsub__(self, other):
        return -self + other

    def __truediv__(self, other):
        """Division by a series (through `inverse`) or by a scalar (an int
        divides as the Fraction 1/other)."""
        if isinstance(other, TruncatedSeries):
            return self * other.inverse()
        return self * (Fraction(1, other) if isinstance(other, int) else 1 / other)

    def __pow__(self, k: int):
        """Integer powers, negative ones through `inverse`."""
        if not isinstance(k, int):
            raise TypeError("series powers take an integer exponent")
        base = self if k >= 0 else self.inverse()
        out = TruncatedSeries.from_terms(self.cap, [(0, 1)], self._zero())
        k = abs(k)
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def inverse(self) -> "TruncatedSeries":
        """1/s for a constant term invertible in the coefficient field.

        Recurrence from s * b = 1:  b_n = -(1/s_0) sum_{k=1..n} s_k b_{n-k}.
        """
        if _is_zero(self.coeffs[0]):
            raise ZeroDivisionError("series inverse needs a nonzero constant term")
        inv0 = Fraction(1) / self.coeffs[0]
        out = [inv0]
        for n in range(1, self.cap + 1):
            acc = self._zero()
            for k in range(1, n + 1):
                sk = self.coeffs[k]
                if not _is_zero(sk):
                    acc = acc + sk * out[n - k]
            out.append(-acc * inv0)
        return TruncatedSeries(self.cap, out)

    def coeff(self, v: int):
        if not 0 <= v <= self.cap:
            raise IndexError(f"coefficient {v} outside 0..{self.cap}")
        return self.coeffs[v]

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term.

        Recurrence from E' = s'E:  n*e_n = sum_{k=1..n} k s_k e_{n-k}.
        """
        if not _is_zero(self.coeffs[0]):
            raise ValueError("exp needs a zero constant term")
        zero = self._zero()
        out = [zero] * (self.cap + 1)
        out[0] = zero + 1
        for n in range(1, self.cap + 1):
            acc = zero
            for k in range(1, n + 1):
                sk = self.coeffs[k]
                if not _is_zero(sk):
                    acc = acc + (sk * out[n - k]) * k
            out[n] = acc * Fraction(1, n)
        return TruncatedSeries(self.cap, out)

    def __repr__(self):
        return f"TruncatedSeries(cap={self.cap}, {self.coeffs})"
