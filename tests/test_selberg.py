import math
import os
from fractions import Fraction

import pytest

from repnum import selberg
from repnum.errors import CapacityError
from repnum.selberg import LinearForm, SieveProblem

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="module")
def toy():
    # box 10, no forms, variant A, z = 3, xi = 4: single sifting prime 3
    return SieveProblem(box=10, z=3, xi=4)


def test_toy_weights(toy):
    assert toy.sifting_primes() == [3]
    assert selberg.weight_g(toy, 3) == Fraction(1, 9)
    assert selberg.weight_h(toy, 3) == Fraction(1, 8)


def test_toy_big_g(toy):
    assert selberg.big_G(toy) == Fraction(9, 8)
    assert selberg.big_G(toy, xi=3) == Fraction(1)
    assert selberg.big_G(toy, d=3, xi=Fraction(4, 3)) == Fraction(1)


def test_toy_lambda_and_mu_plus(toy):
    lams = selberg.lambda_weights(toy)
    assert lams[1] == 1
    assert lams[3] == -1
    mp = selberg.mu_plus(toy, lams)
    assert mp[3] == 2 * lams[1] * lams[3] + lams[3] ** 2 == -1
    assert mp[1] + mp[3] == 0  # sum over d | 3 is >= 0


def test_toy_remainders(toy):
    assert selberg.remainder_Rd(toy, 3) == pytest.approx(9 - 100 / 9)
    assert selberg.remainder_Rd(toy, 1) == 0.0


def test_toy_bounds(toy):
    assert selberg.sieve_upper_bound(toy) == pytest.approx(
        100 / (9 / 8) + 3 * 19 / 9)
    toy3 = SieveProblem(box=10, z=3, xi=3)
    assert selberg.sieve_upper_bound(toy3) == pytest.approx(100 + 3 * 19 / 9)
    assert selberg.sifted_count_exact(toy) == 91


def test_empty_prime_set_bound():
    # no sifting primes at all: G = 1, remainder sum only d = 1
    pr = SieveProblem(box=11, z=2)
    assert pr.sifting_primes() == []
    assert selberg.sifted_count_exact(pr) == 121
    assert selberg.sieve_upper_bound(pr) == pytest.approx(121.0)


def test_weight_formula_examples():
    pa = SieveProblem(box=10, z=10, m=2, forms=(LinearForm(1, 1),), variant="A")
    assert selberg.weight_g(pa, 5) == Fraction(13, 25)
    assert selberg.weight_g(pa, 7) == Fraction(1, 7)
    pb = SieveProblem(box=10, z=10, m=5, forms=(LinearForm(1, 2),), variant="B")
    assert selberg.weight_g(pb, 5) == 0
    assert selberg.weight_g(pb, 7) == Fraction(1 + 6, 49)
    pc = SieveProblem(box=10, z=10, m=5,
                      forms=(LinearForm(1, 2), LinearForm(2, 1)), variant="C")
    assert selberg.weight_g(pc, 7) == Fraction(504, 2401)
    assert selberg.weight_g(pc, 5) == 0  # 5 = 1 mod 4


def test_weight_domain_errors():
    pa = SieveProblem(box=10, z=10, m=1, forms=(LinearForm(1, 1),))
    with pytest.raises(ValueError):
        selberg.weight_g(pa, 3)  # p <= ell + 2
    with pytest.raises(ValueError):
        selberg.weight_g(pa, 11)  # p > z


def test_weight_range_and_t_detection():
    # all weights in [0, 1); ell_p = ell exactly when p does not divide T
    for pr in selberg.random_problems(20, seed=3, box_max=100, z_max=40):
        for p in pr.sifting_primes():
            g = selberg.weight_g(pr, p)
            assert 0 <= g < 1
            ell_p = selberg._independent_classes(pr.forms, p)
            if pr.T % p != 0:
                assert ell_p == pr.ell
            else:
                assert ell_p <= pr.ell


def test_h_multiplicativity():
    pr = SieveProblem(box=50, z=20, m=5, forms=(LinearForm(1, 2),))
    primes = pr.active_primes()
    assert len(primes) >= 2
    d = primes[0] * primes[1]
    lhs = selberg.h_value(pr, d)
    rhs = selberg.g_value(pr, d)
    for p in primes[:2]:
        rhs *= 1 / (1 - selberg.weight_g(pr, p))
    assert lhs == rhs
    assert lhs == selberg.weight_h(pr, primes[0]) * selberg.weight_h(pr, primes[1])


def test_lambda_one_and_bounded():
    for pr in selberg.random_problems(10, seed=9, box_max=100, z_max=30):
        lams = selberg.lambda_weights(pr)
        assert lams[1] == 1
        assert all(abs(v) <= 1 for v in lams.values())


def test_mu_plus_square_identity():
    pr = SieveProblem(box=60, z=15, m=5, forms=(LinearForm(1, 2),))
    lams = selberg.lambda_weights(pr)
    mp = selberg.mu_plus(pr, lams)
    primes = pr.active_primes()
    for n in [1] + primes + [primes[0] * primes[-1], math.prod(primes)]:
        lhs = sum(v for d, v in mp.items() if n % d == 0)
        rhs = sum(v for d, v in lams.items() if n % d == 0) ** 2
        assert lhs == rhs


def test_problem_validation():
    with pytest.raises(ValueError):
        LinearForm(2, 4)
    with pytest.raises(ValueError):
        LinearForm(0, 1)
    with pytest.raises(ValueError):
        SieveProblem(box=10, z=5, xi=4)  # xi < z
    with pytest.raises(ValueError):
        SieveProblem(box=10, z=5, variant="D")
    with pytest.raises(CapacityError, match="Z_CAP"):
        SieveProblem(box=10, z=5000)
    with pytest.raises(CapacityError):
        selberg.sifted_count_exact(SieveProblem(box=10**5, z=5))


def test_problem_metadata():
    forms = (LinearForm(1, 8), LinearForm(4, 7))
    pr = SieveProblem(box=10, z=10, m=65, forms=forms, variant="B")
    assert pr.T == 65 * (1 * 7 - 8 * 4) * (1 * 4 + 8 * 7)
    assert pr.kappa == 4
    assert pr.prime_set == "3mod4"
    assert SieveProblem(box=10, z=10).prime_set == "all"
    assert pr.X == 100


def test_variant_c_exact_division_oracle():
    # For p = 3 mod 4 and a single form, hand-check the exact-division event
    pr = SieveProblem(box=30, z=7, m=5, forms=(LinearForm(1, 2),), variant="C")
    assert pr.sifting_primes() == [7]
    count = 0
    for a in range(1, 31):
        for b in range(1, 31):
            f = (a * a + b * b) * (a + 2 * b)
            e = 0
            while f % 7 == 0:
                f //= 7
                e += 1
            if e == 1:
                count += 1
    counts, sifted = selberg._box_survey(pr, [7])
    assert counts[7] == count
    assert sifted == 900 - count


def test_hr_comparison_value_positive(toy):
    assert selberg.hr_comparison_value(toy) > 0


def test_golden_file_replay():
    with open(os.path.join(DATA, "sieve_golden.csv")) as fh:
        lines = [ln for ln in fh if ln.strip()]
    assert len(lines) == 12
    for line in lines:
        pr, expected = selberg.parse_golden_line(line)
        assert selberg.sifted_count_exact(pr) == expected
        assert selberg.sieve_upper_bound(pr) >= expected
        assert selberg.golden_line(pr, expected) == line.strip()


def test_weight_g_cache_bounded():
    info = selberg.weight_g.cache_info()
    big = SieveProblem(box=10, z=997)  # the most sifting primes, Z_CAP = 1000
    primes = big.sifting_primes()
    assert info.maxsize is not None and info.maxsize >= len(primes)
    for p in primes:
        selberg.weight_g(big, p)
    hits = selberg.weight_g.cache_info().hits
    for p in primes:
        selberg.weight_g(big, p)
    assert selberg.weight_g.cache_info().hits - hits == len(primes)
    for pr in selberg.random_problems(80, seed=5, box_max=50, z_max=60):
        for p in pr.sifting_primes():
            selberg.weight_g(pr, p)
    assert selberg.weight_g.cache_info().currsize <= info.maxsize
