import math

import mpmath
import pytest

from repnum import arith, asymp, moments, repfun
from repnum.errors import CapacityError
from repnum.repfun import RepFamily


def test_landau_ramanujan():
    value, tail = asymp.landau_ramanujan(3)
    assert value == pytest.approx(0.75, abs=1e-15)
    assert tail == 0.5
    v7, _ = asymp.landau_ramanujan(7)
    assert v7 == pytest.approx(0.7578, abs=5e-5)
    v6, t6 = asymp.landau_ramanujan(10**6)
    assert v6 == pytest.approx(0.76422, abs=1e-5)
    assert t6 < 2e-6
    with pytest.raises(ValueError):
        asymp.landau_ramanujan(2)


def test_landau_monotone_within_tail():
    cuts = [10, 100, 1000, 10**4, 10**5]
    vals = [asymp.landau_ramanujan(c) for c in cuts]
    for (v1, t1), (v2, _) in zip(vals, vals[1:]):
        assert abs(math.log(v2 / v1)) <= t1


def test_predicted_main():
    assert asymp.predicted_main("r0_first", 10**6) == pytest.approx(
        math.pi / 4 * 10**6)
    x = math.exp(100)
    assert asymp.predicted_main("r1_first", x) == pytest.approx(
        math.pi / 2 * x / 100)
    got = asymp.predicted_main("M0", 10**7)
    assert got == pytest.approx(0.76422 * 10**7 / math.sqrt(math.log(10**7)),
                                rel=1e-4)
    assert asymp.predicted_main("r0_second", 100) == pytest.approx(
        100 * math.log(100) / 4 + 100 * asymp.R0_SECOND_H)
    with pytest.raises(ValueError):
        asymp.predicted_main("nope", 100)
    with pytest.raises(ValueError):
        asymp.predicted_main("r1_first", 1)
    # the shape terms are keyed by family, not by statistic id
    for stat in ("gss_shape", "rR_shape"):
        with pytest.raises(ValueError, match="unknown statistic"):
            asymp.predicted_main(stat, 10**4)
    shape = asymp.shape_main(RepFamily.R1, 1, 2, 10**4)
    big_l = math.log(math.log(10**4))
    assert shape == pytest.approx(10**4 * big_l**2 / 2 / math.log(10**4) ** 2)
    shape = asymp.shape_main(RepFamily.RPRIME_STAR, 2, 3, 10**4)
    assert shape == pytest.approx(10**4 * (2 * big_l) ** 3 / 6
                                  / math.log(10**4) ** 1.5)
    assert asymp.shape_main(RepFamily.RBIG_STAR, 2, 3, 10**4) == shape
    with pytest.raises(ValueError, match="family must be one of"):
        asymp.shape_main(RepFamily.R0, 1, 2, 10**4)
    with pytest.raises(ValueError, match="x >= 3"):
        asymp.shape_main(RepFamily.R1, 1, 2, 2)


def test_main_terms_pinned():
    """Every _STATISTICS main term against its closed form written out here,
    at the least x that every entry takes and at 1e6 and 1e9.  No suite row
    reads r1_second or M2, so only this test sees a slip in those."""
    k = asymp.landau_ramanujan(asymp.LANDAU_CUTOFF)[0]
    prod = 1 / (2 * k * k)  # prod over p = 3 mod 4 of (1 - p^-2)
    forms = {
        "r0_first": lambda x, lx: math.pi * x / 4,
        "r0_second": lambda x, lx: x * lx / 4 + 0.5041553864333529 * x,
        "r1_first": lambda x, lx: math.pi * x / (2 * lx),
        "r2_first": lambda x, lx: math.pi * x / lx**2,
        "r1_binom2": lambda x, lx: 9 * x / (8 * lx),
        "r1_second": lambda x, lx: (math.pi / 2 + 9 / 4) * x / lx,
        "M0": lambda x, lx: k * x / lx**0.5,
        "M2": lambda x, lx: math.pi * x / (2 * lx**2),
        "M0star": lambda x, lx: 3 / 4 * (prod / 2) ** 0.5 * x / lx**0.5,
        "rR_first": lambda x, lx: math.pi * 2**0.5 * k * x / (4 * lx**0.5),
        "rRprime_first": lambda x, lx: 3 * math.pi * prod**0.5 * x
                                       / (16 * lx**0.5),
    }
    assert set(forms) == set(asymp._STATISTICS)
    for stat, form in forms.items():
        for x in (2, 10**6, 10**9):
            assert asymp.predicted_main(stat, x) == pytest.approx(
                form(x, math.log(x)), rel=1e-14), (stat, x)


def test_ratio_report_examples(table):
    rows = asymp.ratio_report("r0_first", [10], table)
    assert rows[0].empirical == 9
    assert rows[0].predicted == pytest.approx(7.854, abs=5e-4)
    assert rows[0].residual == pytest.approx(1.146, abs=5e-4)
    assert abs(rows[0].residual) <= 3 * math.sqrt(10)
    assert asymp.ratio_report("M0", [10], table)[0].empirical == 7
    assert asymp.ratio_report("r2_first", [50], table)[0].empirical == 9
    rows = asymp.ratio_report("r1_first", [100, 1000, 50], table)
    assert [r.x for r in rows] == [50, 100, 1000]
    for r in rows:
        assert r.ratio == pytest.approx(r.empirical / r.predicted)


@pytest.mark.parametrize("stat", list(asymp._STATISTICS))
def test_empirical_grid_matches_histogram(stat, table):
    xs = [30, 500, 2000]
    family, mode, k, _, _ = asymp._STATISTICS[stat]
    hists = moments.histogram_grid(family, xs, table)
    assert asymp.empirical_grid(stat, xs, table) == [
        moments.moment_from_histogram(h, mode, k) for h in hists]


@pytest.mark.parametrize("family", asymp.GSS_FAMILIES, ids=lambda f: f.value)
def test_shape_ratios_match_histogram(family, table):
    """Each shape ratio is its family's omega_star-filtered binomial moment
    over shape_main, for every ell in SHAPE_ELLS and k <= SHAPE_KMAX."""
    xs = [30, 500, 2000]
    hists = moments.histogram_grid(family, xs, table, omega_kind="omega_star")
    want = {(x, ell, k): moments.moment_from_histogram(
                h, "binomial", ell, ("omega_star", k))
            / asymp.shape_main(family, ell, k, x)
            for x, h in zip(xs, hists) for ell in asymp.SHAPE_ELLS
            for k in range(asymp.SHAPE_KMAX + 1)}
    assert asymp.gss_shape_ratios_grid(family, xs, table) == want


def test_r0_second_constant_matches_mpmath():
    """zeta'(2) and H against mpmath; L'/L(1, chi_4) here is the derivative
    of mpmath's Dirichlet L-series, not the log Gamma(1/4) closed form."""
    with mpmath.workdps(30):
        zp2 = mpmath.zeta(2, derivative=1)
        chi4 = [0, 1, 0, -1]
        l_log_deriv = (mpmath.dirichlet(1, chi4, derivative=1)
                       / mpmath.dirichlet(1, chi4))
        h = (2 * mpmath.euler - 1 + 2 * l_log_deriv + mpmath.log(2) / 3
             - 2 * zp2 / mpmath.zeta(2)) / 4
    assert abs(asymp.ZETA_PRIME_2 - float(zp2)) < 1e-12
    assert abs(asymp.R0_SECOND_H - float(h)) < 1e-12


def test_r0_second_moment_within_sqrt_x(table):
    """|sum r0(n)^2 - x log x / 4 - H x| <= sqrt(x); the residual over
    sqrt(x) reads +0.27, +0.61, -0.22 and -0.13 at these x, so an H off by
    1e-3 fails at 1e7."""
    xs = [10**4, 10**5, 10**6, 10**7]
    m2 = moments.power_moment_grid(RepFamily.R0, xs, 2, table, workers=2)
    for x, v in zip(xs, m2):
        assert abs(v - asymp.predicted_main("r0_second", x)) <= math.sqrt(x), x


def test_mertens_ap_constant(table):
    got = asymp.mertens_ap_constant(1, 10, table)
    assert got == pytest.approx(0.2 - 0.5 * math.log(math.log(10)), rel=1e-12)
    got = asymp.mertens_ap_constant(3, 10, table)
    assert got == pytest.approx(10 / 21 - 0.5 * math.log(math.log(10)),
                                rel=1e-12)
    with pytest.raises(ValueError):
        asymp.mertens_ap_constant(2, 100, table)
    with pytest.raises(ValueError):
        asymp.mertens_ap_constant(1, 2, table)


def test_recip_class_difference_bounded(table6):
    for x in (10**2, 10**3, 10**4, 10**5, 10**6):
        d = abs(arith.prime_recip_sum(x, 1, table6)
                - arith.prime_recip_sum(x, 3, table6))
        assert d <= 0.5, x


def test_argmax_k():
    assert asymp.argmax_k(4.8, 1) == 4
    assert asymp.argmax_k(5, 2) == 9
    assert asymp.argmax_k(0.5, 1) == 0
    assert asymp.argmax_k(1.0, 1) == 0
    with pytest.raises(ValueError):
        asymp.argmax_k(0, 1)
    for i in range(0, 57):
        big_l = 2 + 0.5 * i
        for l in (1, 2, 3):
            assert abs(asymp.argmax_k(big_l, l) - 2 ** (l - 1) * big_l) <= 1


def test_inductive_claim_sum(table):
    assert asymp.inductive_claim_sum(100, table) == pytest.approx(
        100 / (5 * math.log(20)))
    assert asymp.inductive_claim_sum(24, table) == 0.0
    with pytest.raises(ValueError):
        asymp.inductive_claim_sum(10, table)
    # prime powers contribute: at x = 1e4, q = 25 enters
    v = asymp.inductive_claim_sum(10**4, table)
    direct = sum(10**4 / (q * math.log(10**4 / q))
                 for q in (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 25))
    assert v == pytest.approx(direct)


def test_smooth_squarefull_sum(table):
    assert asymp.smooth_squarefull_rstar_sum(30, 1, table) == 12
    with pytest.raises(ValueError):
        asymp.smooth_squarefull_rstar_sum(10, 1, table)
    with pytest.raises(ValueError):
        asymp.smooth_squarefull_rstar_sum(100, 0, table)
    r4 = asymp.smooth_squarefull_rstar_sum(10**4, 1, table) / 10**4
    r5 = asymp.smooth_squarefull_rstar_sum(10**5, 1, table) / 10**5
    assert r5 < r4


def smooth_squarefull_brute(x, m, table):
    z = x ** (1.0 / math.log(math.log(x)))
    total = 0
    for n in range(1, x + 1):
        fact = arith.factor(n, table)
        lpf = arith.largest_prime_factor(fact) if n > 1 else 0
        if lpf <= z or (n > 1 and n % (lpf * lpf) == 0):
            total += repfun.r0_star(fact) ** m
    return total


def test_smooth_squarefull_sum_rejects_short_table():
    # primes to 10 miss 11 and 13, so a walk up to 199 took 121 for a prime
    short = arith.prime_table(10)
    with pytest.raises(CapacityError):
        asymp.smooth_squarefull_rstar_sum(199, 1, short)
    prof = moments.segment_profile(100, 200, arith.prime_table(14).primes)
    assert (prof.omega[21], prof.lpf[21], prof.lpf_sq[21]) == (1, 11, True)
    # and a sum to 20000 came out 264 instead of 1288
    with pytest.raises(CapacityError):
        asymp.smooth_squarefull_rstar_sum(20000, 1, short)
    full = arith.prime_table(200)
    assert asymp.smooth_squarefull_rstar_sum(20000, 1, full) == 1288
    assert smooth_squarefull_brute(20000, 1, full) == 1288


@pytest.mark.parametrize("segment_size, workers, ms", [
    (1, 2, (1,)), (7, 1, (1,)), (97, 1, (1, 2))],
    ids=["size1", "size7", "size97"])
def test_smooth_squarefull_sum_small_segments(segment_size, workers, ms):
    """z = 75 at x = 20000 lies above isqrt(hi - 1) on every window below
    5626, where the walk runs to z instead.  Thousands of tiny windows take
    seconds, so those sweeps run for m = 1 only, 20000 of them on 2
    workers."""
    table = arith.prime_table(200)
    for m in ms:
        got = asymp.smooth_squarefull_rstar_sum(20000, m, table,
                                                segment_size=segment_size,
                                                workers=workers)
        assert got == smooth_squarefull_brute(20000, m, table), m


def test_coprime_gap_matches_engine(table):
    """The closed form against the engine's r1 and r1* sweeps."""
    xs = [16, 17, 100, 12345, 999999]
    r1 = moments.power_moment_grid(RepFamily.R1, xs, 1, table)
    r1s = moments.power_moment_grid(RepFamily.R1_STAR, xs, 1, table)
    assert [asymp.coprime_gap(x, table) for x in xs] == [
        a - b for a, b in zip(r1, r1s)]
    xs = [10**3, 10**4, 10**5, 10**6, 10**7]
    r1 = moments.power_moment_grid(RepFamily.R1, xs, 1, table)
    r1s = moments.power_moment_grid(RepFamily.R1_STAR, xs, 1, table)
    assert asymp.coprime_gap_ratios(xs, table) == [
        (a - b) / (math.sqrt(x) * math.log(math.log(x)))
        for x, a, b in zip(xs, r1, r1s)]
    with pytest.raises(CapacityError):
        asymp.coprime_gap(10**9, table)


def test_gss_shape_ratio(table):
    grid = asymp.gss_shape_ratios_grid(RepFamily.R1, [10], table)
    assert grid[(10, 1, 1)] == pytest.approx(
        3 * math.log(10) ** 2 / (10 * math.log(math.log(10))), rel=1e-12)
    assert grid[(10, 1, 5)] == 0.0
    assert grid[(10, 2, 1)] == 0.0
    with pytest.raises(ValueError, match="family must be one of"):
        asymp.gss_shape_ratios_grid(RepFamily.R0, [10], table)


def test_gss_grid_matches_single(table):
    grid = asymp.gss_shape_ratios_grid(RepFamily.RPRIME_STAR, [100, 1000],
                                       table)
    assert len(grid) == 2 * 2 * 9
    for (x, ell, k), v in grid.items():
        b = moments.binomial_moment(RepFamily.RPRIME_STAR, x, ell, table,
                                    omega_filter=("omega_star", k))
        single = b / asymp.shape_main(RepFamily.RPRIME_STAR, ell, k, x)
        assert v == pytest.approx(single, rel=1e-12), (x, ell, k)


def test_constants_file_roundtrip(tmp_path):
    # values that 12 significant digits would not give back exactly
    path = str(tmp_path / "constants.txt")
    values = {"C": 0.8563351730546764, "gamma1": 0.1 + 0.2,
              "gamma2": -0.2775406929822688, "gss_bound": 2.0}
    asymp.write_constants(path, values, {"C": "gap fit"})
    with open(path) as fh:
        text = fh.read()
    assert "C = 0.8563351730546764 # gap fit" in text
    assert text.endswith("\n")
    assert asymp.read_constants(path) == values


@pytest.mark.parametrize("body, line", [
    ("C = 1.0\ngamma1\n", 2),            # no '='
    ("C = 1.0\n= 2.0 # no key\n", 2),
    ("C = one\n", 1),
    ("C =\n", 1),
    ("C = nan\n", 1),                    # every replay test would pass
    ("C = 1.0\ngamma1 = inf # bad\n", 2),
    ("C = 1.0\ngamma1 = 2.0\nC = 0.5\n", 3),  # a repeated key
])
def test_read_constants_names_bad_line(tmp_path, body, line):
    path = tmp_path / "constants.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match="expected 'key = number'") as exc:
        asymp.read_constants(str(path))
    assert f"{path}:{line}:" in str(exc.value)


def test_read_constants_names_missing_keys(tmp_path):
    path = str(tmp_path / "constants.txt")
    values = {k: 1.5 for k in asymp.CONSTANT_KEYS
              if k not in ("C", "gss_bound")}
    asymp.write_constants(path, values, {})
    with pytest.raises(ValueError) as exc:
        asymp.read_constants(path)
    assert str(exc.value) == f"{path}: missing constant(s) C, gss_bound"


def test_calibrate_small_grid(table):
    v1, notes = asymp.calibrate(table, grid_max=10**5)
    v2, _ = asymp.calibrate(table, grid_max=10**5)
    assert v1 == v2
    assert set(v1) == {"C", "gamma1", "gamma2", "gss_bound"}
    assert set(notes) == set(v1)
    assert v1["C"] > 0 and v1["gamma1"] > 0 and v1["gss_bound"] > 0
    # each fitted constant is the max of the statistic the replay reads
    xs = [10**3, 10**4, 10**5]
    assert v1["C"] == max(asymp.coprime_gap_ratios(xs, table))
    assert v1["gamma1"] == max(
        asymp.rho_bound_ratios(xs, v1["gamma2"], table).values())
    assert v1["gss_bound"] == asymp.gss_shape_max([10**4, 10**5], table)
