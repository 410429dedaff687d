import json
import math
import random

import pytest

from locsys import cli
from locsys.integrality import (
    DivisibilityFailure,
    DivisibilityInstance,
    alternating_binomial_sum,
    binomial_gcd_divisibility_check,
    coprime_factorial,
    coprime_factorial_congruence_check,
    divisibility_check,
    random_instance,
)


def coprime_factorial_identity_check(p: int, n: int) -> bool:
    """f_p(n) * p^[n/p] * [n/p]! == n!, the defining identity."""
    return coprime_factorial(p, n) * p ** (n // p) * math.factorial(n // p) == math.factorial(n)


class TestCoprimeFactorial:
    @pytest.mark.parametrize("p,n,value", [(2, 4, 3), (3, 3, 2), (5, 0, 1), (3, 10, 22400)])
    def test_values(self, p, n, value):
        assert coprime_factorial(p, n) == value

    def test_modular_agrees(self):
        for p in (2, 3, 5):
            for n in range(0, 60):
                assert coprime_factorial(p, n, mod=625) == coprime_factorial(p, n) % 625

    def test_factorial_identity(self):
        # incremental sweep of f_p(n) p^[n/p] [n/p]! = n! for every n <= 1000
        for p in (2, 3, 5, 7):
            fp, fact, floor_fact, power = 1, 1, 1, 1
            for n in range(1, 1001):
                fact *= n
                if n % p:
                    fp *= n
                else:
                    floor_fact *= n // p
                    power *= p
                assert fp * power * floor_fact == fact, (p, n)
        # and coprime_factorial itself on a few scattered points
        assert all(coprime_factorial_identity_check(p, n)
                   for p in (2, 5) for n in (0, 1, 97, 343))

    def test_prime_required(self):
        for p in range(51):
            if p >= 2 and all(p % d for d in range(2, p)):
                assert coprime_factorial(p, p) == math.factorial(p - 1)
            else:
                with pytest.raises(ValueError, match="is not prime"):
                    coprime_factorial(p, 10)


class TestCongruences:
    def test_odd_prime(self):
        assert coprime_factorial_congruence_check(3, 1, 4)

    def test_two_mod_four(self):
        # f_2(2n) = (-1)^[n/2] mod 4; n = 2 gives f_2(4) = 3 = -1
        assert coprime_factorial_congruence_check(2, 1, 2)

    def test_two_higher_power(self):
        assert coprime_factorial_congruence_check(2, 2, 3)

    def test_exhaustive_small(self):
        for p in (2, 3, 5, 7):
            for alpha in (1, 2, 3):
                for n in range(1, 51):
                    assert coprime_factorial_congruence_check(p, alpha, n)

    def test_precondition(self):
        with pytest.raises(ValueError):
            coprime_factorial_congruence_check(9, 1, 2)


class TestBinomialGcd:
    @pytest.mark.parametrize("n,m", [(6, 4), (7, 1), (-6, 4), (100, 37)])
    def test_examples(self, n, m):
        assert binomial_gcd_divisibility_check(n, m)

    def test_randomized(self):
        rng = random.Random(0)
        for _ in range(300):
            n = rng.choice([-1, 1]) * rng.randint(1, 10 ** 4)
            m = rng.randint(1, 500)
            assert binomial_gcd_divisibility_check(n, m)


class TestDivisibilityInstances:
    def hand_instance(self):
        return DivisibilityInstance(a=[1], nu=[1], chi=2,
                                    k={(0, 1, 1): 1}, eps={(0, 1, 1): 1})

    def test_hand_computation(self):
        inst = self.hand_instance()
        assert inst.stage_scalar(0) == 1
        assert alternating_binomial_sum(inst) == -2
        assert divisibility_check(inst)

    def test_degenerate_all_zero_exponents_rejected(self):
        inst = DivisibilityInstance(a=[1], nu=[1], chi=2,
                                    k={(0, 1, 1): 1}, eps={(0, 1, 1): 1})
        inst.k[(0, 1, 1)] = 0
        inst.a[0] = 0
        with pytest.raises(ValueError):
            alternating_binomial_sum(inst)

    def test_constraint_validated(self):
        with pytest.raises(ValueError):
            DivisibilityInstance(a=[2], nu=[1], chi=2,
                                 k={(0, 1, 1): 1}, eps={(0, 1, 1): 1})

    def test_every_key_names_a_stage(self):
        # a key past the last stage used to end in IndexError, and a key of
        # stage -1 read the last stage's nu and passed
        with pytest.raises(ValueError, match=r"exponent key \[1, 1, 1\] names no stage of 1"):
            DivisibilityInstance(a=[1], nu=[1], chi=2, k={(0, 1, 1): 1, (1, 1, 1): 1},
                                 eps={(0, 1, 1): 1, (1, 1, 1): 1})
        obj = DivisibilityInstance(a=[1], nu=[1], chi=2, k={(0, 1, 1): 1},
                                   eps={(0, 1, 1): 1}).to_obj()
        obj["k"].append([[-1, 1, 1], 1])
        obj["eps"].append([[-1, 1, 1], 1])
        with pytest.raises(ValueError, match="divisibility stage i must be JSON integers >= 0"):
            DivisibilityInstance.from_obj(obj)

    def test_chi_must_be_even(self):
        with pytest.raises(ValueError):
            DivisibilityInstance(a=[1], nu=[1], chi=3,
                                 k={(0, 1, 1): 1}, eps={(0, 1, 1): 1})

    def test_stage_scalars(self):
        inst = DivisibilityInstance(a=[2, 3], nu=[1, -2], chi=2,
                                    k={(0, 1, 2): 1, (1, 1, 3): 1},
                                    eps={(0, 1, 2): 1, (1, 1, 3): -1})
        assert inst.stage_scalar(0) == 1 * (2 + 3)
        assert inst.stage_scalar(1) == 1 * 2 + (-2) * 3

    def test_random_suite(self):
        rng = random.Random(1)
        for _ in range(500):
            inst = random_instance(rng)
            assert divisibility_check(inst)

    def test_failure_carries_instance(self):
        # a fabricated non-theorem sum must report its data for minimization
        inst = self.hand_instance()
        try:
            value = alternating_binomial_sum(inst)
            assert value % (inst.chi * inst.stage_scalar(0) * sum(inst.a)) == 0
        except DivisibilityFailure as failure:  # pragma: no cover
            assert failure.instance is not None

    def test_json_roundtrip(self):
        inst = DivisibilityInstance(a=[2, 3], nu=[1, -2], chi=4,
                                    k={(0, 1, 2): 1, (1, 1, 3): 1},
                                    eps={(0, 1, 2): 1, (1, 1, 3): -1})
        again = DivisibilityInstance.from_obj(inst.to_obj())
        assert (again.a, again.nu, again.chi, again.k, again.eps) == (
            inst.a, inst.nu, inst.chi, inst.k, inst.eps)

    @pytest.mark.parametrize("where", ["a", "nu", "k-key", "k-value", "eps-value"])
    def test_from_obj_rejects_non_integer_field(self, where):
        obj = DivisibilityInstance(a=[2, 3], nu=[1, -2], chi=4,
                                   k={(0, 1, 2): 1, (1, 1, 3): 1},
                                   eps={(0, 1, 2): 1, (1, 1, 3): -1}).to_obj()
        field, _, part = where.partition("-")
        if part == "key":
            obj[field][0][0][2] = 2.0
        elif part == "value":
            obj[field][0][1] = 1.0
        else:
            obj[field][0] = str(obj[field][0])
        with pytest.raises(ValueError, match="JSON integers"):
            DivisibilityInstance.from_obj(obj)


def test_from_obj_rejects_repeated_key():
    obj = DivisibilityInstance(a=[2], nu=[1], chi=4, k={(0, 1, 2): 1},
                               eps={(0, 1, 2): 1}).to_obj()
    obj["k"].append(obj["k"][0])
    with pytest.raises(ValueError, match="repeat a key"):
        DivisibilityInstance.from_obj(obj)


class TestZeroModulus:
    """chi * S_m * sum(a) = 0 leaves nothing to divide by: a ValueError,
    which `verify --replay` reports as a failed check with its message."""

    INSTANCES = [
        {"a": [2], "nu": [0], "chi": 2, "k": [[[0, 0, 1], 2]], "eps": [[[0, 0, 1], 1]]},
        {"a": [1, 1], "nu": [1, -1], "chi": 4, "k": [[[0, 0, 1], 1], [[1, 0, 1], 1]],
         "eps": [[[0, 0, 1], 1], [[1, 0, 1], -1]]},
    ]
    MESSAGE = "divisor chi * S_m * sum(a) vanishes for this instance"

    @pytest.mark.parametrize("obj", INSTANCES, ids=["nu-zero", "scalar-cancels"])
    def test_direct_call(self, obj):
        inst = DivisibilityInstance.from_obj(obj)
        assert inst.chi * inst.stage_scalar(inst.m - 1) * sum(inst.a) == 0
        with pytest.raises(ValueError) as info:
            divisibility_check(inst)
        assert str(info.value) == self.MESSAGE

    @pytest.mark.parametrize("obj", INSTANCES, ids=["nu-zero", "scalar-cancels"])
    def test_replay(self, capsys, tmp_path, obj):
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({"checker": "integrality", "instance": obj}))
        code = cli.main(["verify", "integrality", "--replay", str(path)])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (
            1, f"replay integrality: FAIL\n  error: ValueError: {self.MESSAGE}\n", "")
        code = cli.main(["--json", "verify", "integrality", "--replay", str(path)])
        out = capsys.readouterr()
        assert code == 1 and json.loads(out.out) == {
            "suite": "integrality", "passed": False, "error": f"ValueError: {self.MESSAGE}"}
