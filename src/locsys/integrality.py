"""p-adic ingredients of the integrality proof: coprime factorials and their
prime-power congruences, the gcd divisibility of binomials, and the
randomized divisibility theorem for alternating Moebius sums of binomial
products."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import fields
from .combinat import binom_ring, mobius_divisors, prime_factors


class DivisibilityFailure(RuntimeError):
    """An instance violated the proved divisibility; carries the instance."""

    def __init__(self, message, instance=None):
        super().__init__(message)
        self.instance = instance


def coprime_factorial(p: int, n: int, mod: int | None = None) -> int:
    """Product of the integers 1..n coprime to p, optionally reduced mod m."""
    if next(prime_factors(p), None) != (p, 1):
        raise ValueError(f"{p} is not prime")
    if n < 0:
        raise ValueError("need n >= 0")
    out = 1
    for i in range(1, n + 1):
        if i % p:
            out = out * i % mod if mod else out * i
    return out


def coprime_factorial_congruence_check(p: int, alpha: int, n: int) -> bool:
    """p^(2 alpha) divides f_p(p^alpha n) - f_p(p^alpha)^n for odd p with
    alpha >= 1 or p = 2 with alpha >= 2; and f_2(2n) = (-1)^[n/2] mod 4."""
    if p == 2 and alpha == 1:
        return coprime_factorial(2, 2 * n, mod=4) % 4 == (-1) ** (n // 2) % 4
    if not ((p % 2 == 1 and alpha >= 1) or (p == 2 and alpha >= 2)):
        raise ValueError("congruence needs odd p, or p = 2 with alpha >= 2")
    m = p ** (2 * alpha)
    lhs = coprime_factorial(p, p ** alpha * n, mod=m)
    rhs = pow(coprime_factorial(p, p ** alpha, mod=m), n, m)
    return (lhs - rhs) % m == 0


def binomial_gcd_divisibility_check(n: int, m: int) -> bool:
    """n / gcd(n, m) divides binom(n, m), for nonzero n (possibly negative)."""
    if n == 0 or m < 1:
        raise ValueError("need nonzero n and m >= 1")
    b = binom_ring(Fraction(n), m)
    assert b.denominator == 1
    return int(b) % (abs(n) // math.gcd(abs(n), m)) == 0


@dataclass
class DivisibilityInstance:
    """Data for one alternating binomial sum.

    For each stage i there are exponents k[(i, j, s)] >= 0 with
    sum over (j, s) of s * k == a_i, signs eps[(i, j, s)], a chain weight
    nu_i, and an even positive chi.  The stage scalars are
    S_i = sum_{j < i} nu_j a_j + nu_i sum_{j >= i} a_j.
    """

    a: list
    nu: list
    chi: int
    k: dict = field(default_factory=dict)
    eps: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.chi < 2 or self.chi % 2:
            raise ValueError("chi must be even and positive")
        if len(self.a) != len(self.nu) or not self.a:
            raise ValueError("need matching nonempty a and nu")
        m = len(self.a)
        for i in range(m):
            total = sum(s * kk for (ii, j, s), kk in self.k.items() if ii == i)
            if total != self.a[i]:
                raise ValueError(f"stage {i} exponents sum to {total}, not {self.a[i]}")
        for key in self.k:
            if not 0 <= key[0] < m:
                raise ValueError(f"exponent key {list(key)} names no stage of {m}")
            if key not in self.eps or self.eps[key] not in (1, -1):
                raise ValueError("every exponent needs a sign of +-1")

    @property
    def m(self):
        return len(self.a)

    def stage_scalar(self, i: int) -> int:
        return sum(self.nu[j] * self.a[j] for j in range(i)) + self.nu[i] * sum(
            self.a[j] for j in range(i, self.m)
        )

    def exponent_gcd(self) -> int:
        g = 0
        for v in self.k.values():
            g = math.gcd(g, v)
        return g

    def to_obj(self):
        return {
            "a": list(self.a),
            "nu": list(self.nu),
            "chi": self.chi,
            "k": [[list(key), v] for key, v in sorted(self.k.items())],
            "eps": [[list(key), v] for key, v in sorted(self.eps.items())],
        }

    @classmethod
    def from_obj(cls, obj):
        """Read to_obj's form; every field must be a JSON integer (a float,
        bool or string is rejected, not truncated), and no key may repeat."""
        obj = _INSTANCE_FIELDS(obj)
        k, eps = dict(obj["k"]), dict(obj["eps"])
        if len(k) != len(obj["k"]) or len(eps) != len(obj["eps"]):
            raise ValueError("divisibility k and eps must not repeat a key")
        return cls(a=obj["a"], nu=obj["nu"], chi=obj["chi"], k=k, eps=eps)


# Caps on the fields that size a check: a replay at the caps takes well
# under a second, and random_instance draws far below them.
_STAGES = 10
_INT = fields.integer("divisibility fields")
_CHI = fields.integer("divisibility chi", cap=100)


def _capped_list(label, item, cap):
    """A JSON list of at most cap items, each read by item."""
    length = fields.integer(f"{label} length", cap=cap)
    items = fields.list_of(item)

    def read(v):
        if type(v) is list:
            length(len(v))
        return items(v)
    return read


def _entries(label, value):
    key = fields.tuple_of("divisibility keys", "[i, j, s] triples",
                          fields.integer("divisibility stage i", low=0, cap=_STAGES - 1), _INT,
                          fields.integer("divisibility part s", low=1, cap=100))
    return _capped_list(label, fields.tuple_of(
        "divisibility k and eps entries", "[[i, j, s], value] pairs", key, value), 30)


_INSTANCE_FIELDS = fields.record({
    "a": _capped_list("divisibility a", fields.integer("divisibility a", cap=100), _STAGES),
    "nu": _capped_list("divisibility nu", fields.integer("divisibility nu", low=-100, cap=100),
                       _STAGES),
    "chi": lambda v: _CHI(_INT(v)),  # a non-integer chi is reported as one of the fields
    "k": _entries("divisibility k", fields.integer("divisibility k exponent", low=0, cap=100)),
    "eps": _entries("divisibility eps", _INT)})


def alternating_binomial_sum(inst: DivisibilityInstance) -> int:
    """sum over l | gcd(k) of mu(l) (-1)^(sum k / l) times the product of
    binom(eps * chi * s * S_i / l, k / l); integrality is asserted."""
    g = inst.exponent_gcd()
    if g == 0:
        raise ValueError("degenerate instance: all exponents vanish")
    total = Fraction(0)
    for l, mu in mobius_divisors(g):
        ksum = sum(inst.k.values()) // l
        term = Fraction(mu) * (-1) ** ksum
        for (i, j, s), kk in inst.k.items():
            top = Fraction(inst.eps[(i, j, s)] * inst.chi * s * inst.stage_scalar(i), l)
            term *= binom_ring(top, kk // l)
        total += term
    if total.denominator != 1:
        raise DivisibilityFailure("alternating sum is not an integer", inst.to_obj())
    return int(total)


def divisibility_check(inst: DivisibilityInstance) -> bool:
    """The alternating sum is divisible by chi * S_m * sum(a)."""
    modulus = inst.chi * inst.stage_scalar(inst.m - 1) * sum(inst.a)
    if modulus == 0:
        raise ValueError("divisor chi * S_m * sum(a) vanishes for this instance")
    value = alternating_binomial_sum(inst)
    if value % modulus:
        raise DivisibilityFailure(
            f"{value} not divisible by {modulus}", inst.to_obj()
        )
    return True


def random_instance(rng) -> DivisibilityInstance:
    """Valid random instance (1-3 stages, a_i <= 30): exponents are drawn first
    and each a_i derived, so the stage constraint holds by construction; nu
    values are retried until the final stage scalar is nonzero."""
    while True:
        m = rng.randint(1, 3)
        k = {}
        eps = {}
        a = []
        ok = True
        for i in range(m):
            entries = rng.randint(1, 3)
            total = 0
            for idx in range(entries):
                j = rng.randint(1, 3)
                s = rng.randint(1, 4)
                kk = rng.randint(0 if idx else 1, max(1, 30 // (2 * s)))
                if kk == 0:
                    continue
                if (i, j, s) in k:
                    k[(i, j, s)] += kk
                else:
                    k[(i, j, s)] = kk
                    eps[(i, j, s)] = rng.choice((1, -1))
                total += s * kk
            if total == 0 or total > 30:
                ok = False
                break
            a.append(total)
        if not ok or not k:
            continue
        nu = [rng.randint(-3, 3) for _ in range(m)]
        inst = DivisibilityInstance(a=a, nu=nu, chi=rng.choice((2, 4, 6)), k=k, eps=eps)
        if inst.stage_scalar(m - 1) != 0:
            return inst
