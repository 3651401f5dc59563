import dataclasses
import gc
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
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
    assert _big_g_reference(toy, 1, 3) == Fraction(1)
    assert _big_g_reference(toy, 3, Fraction(4, 3)) == Fraction(1)


def _products_reference(primes, bound, i=0, d=1, used=()):
    """(d, used) for the squarefree products d < bound of primes[i:] times
    d, by recursion."""
    yield d, used
    for j in range(i, len(primes)):
        if d * primes[j] >= bound:
            break
        yield from _products_reference(primes, bound, j + 1, d * primes[j],
                                       used + (primes[j],))


def _big_g_reference(problem, d, bound):
    """G_d(bound) = sum of h(l) over squarefree products l < bound of the
    active primes that do not divide d."""
    primes = [p for p in problem.active_primes() if d % p]
    return sum(math.prod((selberg.weight_h(problem, p) for p in used),
                         start=Fraction(1))
               for _, used in _products_reference(primes, bound))


def _lambda_reference(problem):
    """lambda_d = mu(d) prod_{p | d} (1 - g(p))^-1 G_d(xi / d) / G, one
    G_d sum per d."""
    g_total = _big_g_reference(problem, 1, problem.xi)
    out = {}
    for d, used in _products_reference(problem.active_primes(), problem.xi):
        prod = math.prod((1 / (1 - selberg.weight_g(problem, p))
                          for p in used), start=Fraction(1))
        out[d] = ((-1) ** len(used) * prod
                  * _big_g_reference(problem, d, problem.xi / d) / g_total)
    return out


def _lambda_problems():
    # xi > z in the last: the products below xi reach past P(z)'s primes
    return selberg.random_problems(60, seed=17, box_max=50, z_max=200) + [
        SieveProblem(box=10, z=3, xi=4),
        SieveProblem(box=40, z=30, xi=Fraction(71, 2), m=13,
                     forms=(LinearForm(2, 3),))]


def test_lambda_matches_per_d_reference():
    for pr in _lambda_problems():
        assert selberg.big_G(pr) == _big_g_reference(pr, 1, pr.xi)
        assert list(selberg.lambda_weights(pr).items()) == list(
            _lambda_reference(pr).items()), pr


def _mu_plus_reference(lams):
    """mu_plus with a Fraction product and sum per pair, in the sorted
    double loop."""
    out = {}
    items = sorted(lams.items())
    for d1, l1 in items:
        for d2, l2 in items:
            d = d1 * d2 // math.gcd(d1, d2)
            out[d] = out.get(d, Fraction(0)) + l1 * l2
    return out


def _bound_reference(problem):
    """sieve_upper_bound(problem, return_parts=True) summed in Fractions,
    with g(d) from g_value and G from the per-d reference."""
    ds, counts, _ = selberg._box_survey(problem)
    main = problem.X / _big_g_reference(problem, 1, problem.xi)
    rem = Fraction(0)
    remainders = {}
    for (d, used), count in zip(ds, counts):
        remainders[d] = count - selberg.g_value(problem, d) * problem.X
        rem += 3 ** len(used) * abs(remainders[d])
    return float(main + rem), float(main), remainders


def test_integer_algebra_matches_fraction_references():
    # G, mu_plus and the bound's parts sum ints over one denominator; the
    # values, their Fraction type and the key order match the Fraction sums
    problems = _lambda_problems()
    assert {pr.variant for pr in problems} == set("ABC")
    assert max(pr.z for pr in problems) > 150
    for pr in problems:
        big_g = selberg.big_G(pr)
        assert type(big_g) is Fraction
        assert big_g == _big_g_reference(pr, 1, pr.xi), pr
        lams = selberg.lambda_weights(pr)
        mp = selberg.mu_plus(pr, lams)
        assert list(mp.items()) == list(_mu_plus_reference(lams).items()), pr
        bound, main, rem = selberg.sieve_upper_bound(pr, return_parts=True)
        want_bound, want_main, want_rem = _bound_reference(pr)
        assert (bound, main) == (want_bound, want_main), pr
        assert list(rem.items()) == list(want_rem.items()), pr
        assert all(type(v) is Fraction
                   for v in [*mp.values(), *rem.values()])


def test_selberg_identity_is_exact():
    # sum_e mu_plus(e) g(e) = 1 / G; any lambda_d off breaks it
    for pr in _lambda_problems():
        mp = selberg.mu_plus(pr)
        assert sum(v * selberg.g_value(pr, e) for e, v in mp.items()) == (
            1 / selberg.big_G(pr)), pr


def test_toy_lambda_and_mu_plus(toy):
    lams = selberg.lambda_weights(toy)
    assert lams[1] == 1
    assert lams[3] == -1
    mp = selberg.mu_plus(toy, lams)
    assert mp[3] == 2 * lams[1] * lams[3] + lams[3] ** 2 == -1
    assert mp[1] + mp[3] == 0  # sum over d | 3 is >= 0


def test_toy_remainders(toy):
    remainders = selberg.sieve_upper_bound(toy, return_parts=True)[2]
    assert remainders[3] == 9 - Fraction(100, 9)
    assert remainders[1] == 0


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


def test_weights_leave_no_reference_cycles():
    # a garbage cycle waits for the full cyclic collector, whose pause then
    # lands inside some later sieve call
    pr = SieveProblem(box=60, z=29, m=13, forms=(LinearForm(2, 3),))
    gc.collect()
    gc.disable()
    try:
        selberg.mu_plus(pr, selberg.lambda_weights(pr))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_problem_validation():
    with pytest.raises(ValueError):
        LinearForm(2, 4)
    with pytest.raises(ValueError):
        LinearForm(0, 1)
    with pytest.raises(ValueError):
        SieveProblem(box=10, z=5, xi=4)  # xi < z
    for z in (0, 1):  # xi = z <= 1 leaves G an empty sum
        with pytest.raises(ValueError, match="z must be >= 2"):
            SieveProblem(box=5, z=z)
    with pytest.raises(ValueError):
        SieveProblem(box=10, z=5, variant="D")
    with pytest.raises(CapacityError, match="Z_CAP"):
        SieveProblem(box=10, z=5000)
    with pytest.raises(CapacityError):
        selberg.sifted_count_exact(SieveProblem(box=10**5, z=5))
    with pytest.raises(CapacityError, match="oracle cap"):
        selberg.sieve_upper_bound(SieveProblem(box=10**5, z=5))


def test_problem_metadata():
    forms = (LinearForm(1, 8), LinearForm(4, 7))
    pr = SieveProblem(box=10, z=10, m=65, forms=forms, variant="B")
    assert pr.T == 65 * (1 * 7 - 8 * 4) * (1 * 4 + 8 * 7)
    assert pr.kappa == 4
    assert pr.prime_set == "3mod4"
    assert SieveProblem(box=10, z=10).prime_set == "all"
    assert pr.X == 100


@pytest.mark.parametrize("kw", [{"prime_set": "all"}, {"X": Fraction(100)}],
                         ids=lambda kw: next(iter(kw)))
def test_derived_metadata_is_not_an_init_field(kw):
    # prime_set follows the variant and X is the box area N^2
    with pytest.raises(TypeError):
        SieveProblem(box=10, z=10, **kw)


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
    ds, counts, sifted = selberg._box_survey(pr)
    assert dict(zip((d for d, _ in ds), counts))[7] == count
    assert sifted == 900 - count


def _valuation(n, p):
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _oracle_survey(pr):
    """|A_d| for every squarefree product d < xi^2 + 1 of active primes, and
    the sifted count, from the p-adic valuation of each cell's product."""
    active = pr.active_primes()
    ds = [math.prod(c) for r in range(len(active) + 1)
          for c in itertools.combinations(active, r)
          if math.prod(c) < pr.xi * pr.xi + 1]
    counts = dict.fromkeys(ds, 0)
    sifted = 0
    for a in range(1, pr.box + 1):
        for b in range(1, pr.box + 1):
            prod = (a * a + b * b) * math.prod(f.u * a + f.v * b
                                               for f in pr.forms)
            hit = set()
            for p in pr.sifting_primes():
                e = _valuation(prod, p)
                if (e == 1) if pr.variant == "C" else (e >= 1):
                    hit.add(p)
            sifted += not hit
            for d in ds:
                counts[d] += all(d % p or p in hit for p in active)
    return counts, sifted


@pytest.mark.parametrize("pr", [
    SieveProblem(box=40, z=13, xi=40, m=5, forms=(LinearForm(1, 2),),
                 variant="A"),
    SieveProblem(box=37, z=17, m=65,
                 forms=(LinearForm(1, 8), LinearForm(4, 7)), variant="A"),
    SieveProblem(box=40, z=23, m=5, forms=(LinearForm(1, 2),), variant="B"),
    SieveProblem(box=40, z=20, m=5, forms=(LinearForm(1, 2),), variant="C"),
    # 7 divides T: sifted, but carries no weight and so enters no d
    SieveProblem(box=40, z=20, m=145,
                 forms=(LinearForm(1, 12), LinearForm(9, 8)), variant="C"),
    # the residue tables fold: periods 49 and 121 below the box side
    SieveProblem(box=131, z=11, m=5, forms=(LinearForm(1, 2),), variant="C"),
    SieveProblem(box=150, z=13, m=5, forms=(LinearForm(1, 2),), variant="A"),
    # q = 49 == N keeps a residue table, q == N + 1 takes its box rows
    SieveProblem(box=49, z=11, m=5, forms=(LinearForm(1, 2),), variant="C"),
    SieveProblem(box=48, z=11, m=5, forms=(LinearForm(1, 2),), variant="C"),
    # tables for q = 49, 121 and box rows for q = 361, 529
    SieveProblem(box=131, z=23, m=5, forms=(LinearForm(1, 2),), variant="C"),
    # rows of b at uint64 word edges: the last word one bit short of full,
    # full, or holding one bit
    *(SieveProblem(box=n, z=13, m=5, forms=(LinearForm(1, 2),), variant=v)
      for v in "AC" for n in (63, 64, 65, 129)),
], ids=["A1", "A2", "B1", "C1", "C2", "C-fold", "A-fold", "C-q=N",
        "C-q=N+1", "C-mixed",
        *(f"{v}-N={n}" for v in "AC" for n in (63, 64, 65, 129))])
def test_survey_matches_valuation_oracle(pr, monkeypatch):
    ds, counts, sifted = selberg._box_survey(pr)
    assert max(len(used) for _, used in ds) >= 2
    assert all(math.prod(used) == d for d, used in ds)
    want, want_sifted = _oracle_survey(pr)
    assert dict(zip((d for d, _ in ds), counts)) == want
    assert sifted == want_sifted
    assert selberg.sifted_count_exact(pr) == want_sifted
    # row chunks of 7 leave a short last chunk, and class tables only up
    # to modulus 8 leave the rest to scatter; the uncached pass must agree
    monkeypatch.setattr(selberg, "_ROW_CHUNK", 7)
    monkeypatch.setattr(selberg, "_CLASS_TABLE_MAX", 8)
    assert selberg._box_survey.__wrapped__(pr) == (ds, counts, sifted)


def test_bound_and_exact_count_share_one_pass(monkeypatch):
    problems = [
        SieveProblem(box=300, z=23, xi=29, m=13,
                     forms=(LinearForm(2, 3),), variant="A"),
        # periods 49 and 121 keep tables of two and one row chunks; 361 and
        # 529 exceed N and take the box rows, in two row chunks
        SieveProblem(box=300, z=23, m=5, forms=(LinearForm(1, 2),),
                     variant="C"),
    ]
    calls = []
    event_rows = selberg._event_rows

    def counting(problem, p, a, tables):
        calls.append((problem, p, int(a[0]), int(a[-1])))
        assert a.tolist() == list(range(a[0], a[-1] + 1))
        return event_rows(problem, p, a, tables)

    monkeypatch.setattr(selberg, "_event_rows", counting)
    for pr in problems:
        selberg.sieve_upper_bound(pr)
        selberg.sifted_count_exact(pr)
    # q <= N: table rows 0 .. q - 1; q > N: box rows 1 .. N; each once, in
    # row chunks
    chunk = selberg._ROW_CHUNK
    want = []
    for pr in problems:
        for p in pr.sifting_primes():
            q = p * p if pr.variant == "C" else p
            lo, hi = (0, q - 1) if q <= pr.box else (1, pr.box)
            want += [(pr, p, a, min(a + chunk - 1, hi))
                     for a in range(lo, hi + 1, chunk)]
    assert sorted(calls, key=repr) == sorted(want, key=repr)


def test_survey_memory_is_bounded():
    # tables only for q <= N, packed into ceil(N / 64) words a row; a prime
    # with q > N holds one row chunk.  A bool table of min(q, N + 1) rows
    # per prime would grow ru_maxrss by about 190 MB here.
    src = os.path.join(os.path.dirname(DATA), os.pardir, "src")
    code = ("import resource; from repnum import selberg; "
            "pr = selberg.SieveProblem(box=3000, z=200, m=5, "
            "forms=(selberg.LinearForm(1, 2),), variant='C'); "
            "rss = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
            "before = rss(); selberg._box_survey(pr); print(rss() - before)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert int(out.stdout) <= 32 * 1024  # ru_maxrss counts KiB on Linux


def test_survey_tracemalloc_peak():
    # the residue tables are built in row chunks and a class table keeps at
    # most _CLASS_TABLE_MAX + 2 rows: 8.0 MiB here (Python 3.11, numpy
    # 2.4); tables built in one call take the peak past 12 MiB
    pr = SieveProblem(box=4000, z=100, m=5, forms=(LinearForm(1, 2),),
                      variant="C")
    pr.active_primes()
    tracemalloc.start()
    try:
        selberg._box_survey.__wrapped__(pr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def _event_mask_reference(problem, p, a_col, b_row):
    """The event at p from the full-grid residues of every factor."""
    if problem.variant in ("A", "B"):
        mask = (a_col * a_col + b_row * b_row) % p == 0
        for f in problem.forms:
            mask |= (f.u * a_col + f.v * b_row) % p == 0
        return mask
    p2 = p * p
    norm = (a_col * a_col + b_row * b_row) % p2
    vals = (norm % p == 0).astype(np.int64) + (norm == 0)
    for f in problem.forms:
        fv = (f.u * a_col + f.v * b_row) % p2
        vals += (fv % p == 0).astype(np.int64) + (fv == 0)
    return vals == 1


def _mask_problems():
    """random_problems problems, plus every form of m = 54^2 + 1: 54 is the
    largest coefficient any m < 3000 gives a form."""
    big = 54 * 54 + 1
    forms = tuple(LinearForm(u, v)
                  for u, v in selberg.coprime_representations(big))
    return selberg.random_problems(30, seed=11, box_max=100, z_max=50) + [
        SieveProblem(box=100, z=50, m=big, forms=forms)]


@pytest.mark.parametrize("variant", "ABC")
def test_event_rows_match_full_grid_residues(variant, monkeypatch):
    # b = 1 .. N at uint64 word edges and below one byte, so moduli p and
    # p^2 fall on both sides of N and of the class-table bound (tables,
    # scatter of one or several b per class); p = 5 and 7 put several b of
    # one class in a byte; 3 divides v of one of big's forms and u of the
    # other; 997 = 1 (mod 4) lifts iota to p^2
    rng = np.random.default_rng(ord(variant))
    for pr in _mask_problems():
        for n, table_max in itertools.product((1, 7, 63, 64, 65, 129),
                                              (8, 256)):
            monkeypatch.setattr(selberg, "_CLASS_TABLE_MAX", table_max)
            pr_n = dataclasses.replace(pr, variant=variant, box=n)
            # the table rows from a = 0, and arbitrary rows up to the cap
            a = np.concatenate([np.arange(130), rng.integers(
                130, selberg.ORACLE_BOX_CAP + 1, 32)])
            b_row = np.arange(1, n + 1)[None, :]
            for p in sorted({3, 5, 7, 997, *pr.sifting_primes()}):
                got = selberg._event_rows(pr_n, p, a,
                                          selberg._class_tables(pr_n, p))
                want = selberg._pack(
                    _event_mask_reference(pr_n, p, a[:, None], b_row),
                    -(-n // 64))
                assert got.dtype == np.uint64
                assert np.array_equal(got, want), (pr_n, p, table_max)


def test_remainder_takes_g_from_the_factors():
    # R_d takes g(d) as the product of g(p) over d's factors, not from
    # g_value's trial division; both give the same g(d)
    for pr in selberg.random_problems(12, seed=21, box_max=60, z_max=60) + [
            SieveProblem(box=10, z=3, xi=4)]:
        ds, counts, _ = selberg._box_survey(pr)
        for (d, used), count in zip(ds, counts):
            assert selberg._remainder_exact(pr, d, used, count) == (
                count - selberg.g_value(pr, d) * pr.X)


@pytest.mark.parametrize("pr, slack", [
    # variant A, g(7) = 1/49, slack d; N = 70 is a multiple of d
    (SieveProblem(box=70, z=7), 7),
    # variant C, g(7) = 36/343, slack d^2; N = 98 is a multiple of d^2
    (SieveProblem(box=98, z=7, m=5, forms=(LinearForm(1, 2),), variant="C"),
     49),
], ids=["A", "C"])
def test_remainder_bound_admits_equality(pr, slack):
    # g(d) N^2 is an int, so |R_d| can land exactly on 2 slack (N + 1):
    # that passes, and one more raises, on both sides of g(d) X
    d = 7
    main = selberg.weight_g(pr, d) * pr.X
    assert main.denominator == 1
    limit = 2 * slack * (pr.box + 1)
    for sign in (1, -1):
        count = int(main) + sign * limit
        assert selberg._remainder_exact(pr, d, (d,), count) == sign * limit
        with pytest.raises(AssertionError,
                           match=rf"\|R_7\| = {limit + 1}\.000 exceeds"):
            selberg._remainder_exact(pr, d, (d,), count + sign)


def test_popcount_of_a_full_chunk_at_the_cap():
    # the most bits one count sees: every bit of a row chunk of the widest
    # box; the uint32 sum must not wrap
    words = -(-selberg.ORACLE_BOX_CAP // 64)
    full = np.full((selberg._ROW_CHUNK, words), ~np.uint64(0))
    assert selberg._popcount(full) == selberg._ROW_CHUNK * words * 64


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
