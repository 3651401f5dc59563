import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repnum import acceptance, arith, asymp, cli, moments, repfun
from repnum.errors import CapacityError


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_row(capsys):
    code, out, _ = run(capsys, "eval", "--family", "r0", "--n", "25")
    assert code == 0
    assert out == "family,n,value\nr0,25,3\n"


def test_eval_enumerated_families(capsys):
    code, out, _ = run(capsys, "eval", "--family", "r2", "--n", "338")
    assert code == 0 and out.splitlines()[1] == "r2,338,3"
    code, out, _ = run(capsys, "eval", "--family", "rrprime", "--n", "25")
    assert code == 0 and out.splitlines()[1] == "rrprime,25,1"


def record_tables(monkeypatch, build_to=10**4):
    """The limits every prime_table call asks for, and the exception
    raised, with nothing built, for a limit past build_to up to the cap
    (past the cap, prime_table raises CapacityError before any sieve)."""
    class Recorded(Exception):
        pass

    limits = []
    real = arith.prime_table

    def recorded(limit, spf_cap=0):
        limits.append(limit)
        if build_to < limit <= arith.LIMIT_CAP:
            raise Recorded
        return real(limit, spf_cap)

    monkeypatch.setattr(arith, "prime_table", recorded)
    return limits, Recorded


@pytest.mark.parametrize("family", ["r0", "r0star"])
def test_eval_factors_with_small_primes_first(monkeypatch, capsys, family):
    """10^16 + 1 = 353 449 641 1409 69857: the primes to 10^4 leave the
    cofactor 69857 < 10^8, a prime, so eval builds no larger table."""
    limits, _ = record_tables(monkeypatch)
    n = 10**16 + 1
    assert 353 * 449 * 641 * 1409 * 69857 == n
    code, out, _ = run(capsys, "eval", "--family", family, "--n", str(n))
    assert (code, out) == (0, f"family,n,value\n{family},{n},32\n")
    assert limits == [10**4]


def test_eval_semiprime_near_the_table_cap(monkeypatch, capsys):
    """A semiprime with no factor below 10^4 needs the table to isqrt(n) +
    1, as before: built below the cap (1999999958 here, recorded, not
    built), a capacity error past it; a semiprime near 10^12 prints what
    the table to isqrt(n) + 1 gives."""
    limits, recorded = record_tables(monkeypatch)
    near = 1999999943 * 1999999973
    with pytest.raises(recorded):
        cli.main(["eval", "--family", "r0", "--n", str(near)])
    assert limits == [10**4, math.isqrt(near) + 1]
    past = 2000000011 * 2000000033
    limits.clear()
    code, out, err = run(capsys, "eval", "--family", "r0", "--n", str(past))
    assert (code, out) == (3, "")
    assert limits == [10**4, math.isqrt(past) + 1]
    assert err == (f"capacity: limit {math.isqrt(past) + 1} exceeds prime "
                   f"table cap LIMIT_CAP = {arith.LIMIT_CAP}\n")
    n = 1000033 * 1000037
    monkeypatch.undo()
    old = arith.factor(n, cli._table(n))
    for family, value in (("r0", repfun.r0_formula(old)),
                          ("r0star", repfun.r0_star(old))):
        code, out, _ = run(capsys, "eval", "--family", family, "--n", str(n))
        assert (code, out) == (0, f"family,n,value\n{family},{n},{value}\n")
        assert value == 4


def test_moments_and_zeroth(capsys):
    code, out, _ = run(capsys, "moments", "--family", "r1", "--x", "1000",
                       "--power", "2")
    assert code == 0
    assert out.splitlines()[1].split(",")[-1].isdigit()
    code, out, _ = run(capsys, "moments", "--family", "r1", "--x", "1000",
                       "--binomial", "1", "--omega-star", "1")
    assert code == 0
    assert "omega_star=1" in out
    code, out, _ = run(capsys, "zeroth", "--family", "r0", "--x", "10")
    assert code == 0
    assert out.splitlines()[1] == "r0,10,7"


def test_negative_omega_filter_exits_2(capsys):
    for flag in ("--omega-star", "--omega"):
        code, out, err = run(capsys, "moments", "--family", "r0", "--x",
                             "100000", "--power", "1", flag, "-2")
        assert code == 2 and out == ""
        assert "omega filter value must be >= 0" in err


@pytest.mark.parametrize("argv", [
    ["moments", "--family", "r0", "--x", "-5", "--power", "2"],
    ["zeroth", "--family", "r0star", "--x", "-5"],
], ids=["moments", "zeroth"])
def test_cutoff_below_one_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: moment cutoffs must be >= 1\n"


def test_grid(capsys):
    code, out, _ = run(capsys, "moments", "--family", "r0", "--grid",
                       "10:1000:10")
    assert code == 0
    xs = [line.split(",")[1] for line in out.splitlines()[1:]]
    assert xs == ["10", "100", "1000"]
    code, _, err = run(capsys, "moments", "--family", "r0", "--grid", "10:5:2")
    assert code == 2 and "grid" in err


def test_out_file_and_determinism(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["moments", "--family", "r1", "--x", "200000", "--power", "2"]
    assert cli.main(args + ["--workers", "1", "--segment-size", "16384",
                            "--out", str(a)]) == 0
    assert cli.main(args + ["--workers", "4", "--segment-size", "1048576",
                            "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_verify_identities_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--x", "2000")
    assert code == 0
    assert all(",pass," in line for line in out.splitlines()[1:])


def test_verify_identities_csv_same_on_one_and_two_workers(tmp_path):
    outs = []
    for workers in ("1", "2"):
        path = tmp_path / f"identities-{workers}.csv"
        assert cli.main(["verify", "--suite", "identities", "--x", "3000000",
                         "--workers", workers, "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert b"r2_square_identity_with_diagonal,pass" in outs[0]


def test_verify_argmax(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "argmax")
    assert code == 0


def test_verify_oracle_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--x", "3000")
    assert code == 0
    assert ",pass," in out


def test_verify_calibrated_requires_constants(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    code, _, err = run(capsys, "verify", "--suite", "calibrated",
                       "--constants", missing)
    assert code == 2
    assert "calibrate" in err


@pytest.mark.parametrize("verb", [("verify", "--suite", "calibrated"),
                                  ("constants",)], ids=lambda v: v[0])
def test_missing_constants_file_exits_2(tmp_path, capsys, verb):
    missing = str(tmp_path / "nope.txt")
    code, out, err = run(capsys, *verb, "--constants", missing)
    assert (code, out) == (2, "")
    assert err == (f"error: constants file {missing!r} not found; run "
                   "`repnum calibrate` first\n")


@pytest.mark.parametrize("verb", [("verify", "--suite", "calibrated"),
                                  ("constants",)], ids=lambda v: v[0])
def test_bad_constants_file_exits_2(tmp_path, capsys, verb):
    path = tmp_path / "constants.txt"
    full = "".join(f"{k} = 1.0\n" for k in asymp.CONSTANT_KEYS)
    cases = [(full.replace("gamma1 = 1.0", "gamma1"), f"{path}:2:"),
             (full.replace("gss_bound = 1.0\n", ""), "missing constant(s) "
              "gss_bound")]
    for body, needle in cases:
        path.write_text(body)
        code, out, err = run(capsys, *verb, "--constants", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and needle in err


@pytest.mark.parametrize("x", ["-5", "0"])
def test_verify_x_below_one_is_a_usage_error(capsys, x):
    code, out, err = run(capsys, "verify", "--suite", "oracle", "--x", x)
    assert (code, out) == (2, "")
    assert err == f"error: --x must be >= 1, got {x}\n"


def test_calibrate_grid_max_below_gss_grid(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kw):
        raise AssertionError("the sweep ran")
    monkeypatch.setattr(moments, "_hist_sweep", no_sweep)
    path = tmp_path / "constants.txt"
    for grid_max in ("500", "-5"):
        code, out, err = run(capsys, "calibrate", "--grid-max", grid_max,
                             "--constants", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: grid_max must be >= 10000")
        assert not path.exists()


def test_calibrate_and_constants(tmp_path, capsys):
    path = str(tmp_path / "constants.txt")
    code, out, _ = run(capsys, "calibrate", "--grid-max", "100000",
                       "--constants", path)
    assert code == 0
    assert os.path.exists(path)
    stored = asymp.read_constants(path)
    assert set(stored) == {"C", "gamma1", "gamma2", "gss_bound"}
    code, out, _ = run(capsys, "constants", "--constants", path)
    assert code == 0
    assert out.splitlines()[0] == "key,value"
    assert len(out.splitlines()) == 5


def test_table_command(capsys):
    code, out, _ = run(capsys, "table", "--limit", "1000")
    assert (code, out) == (0, "limit,primes,spf_limit\n1000,168,1000\n")
    code, out, err = run(capsys, "table", "--limit", "1000", "--cache")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --cache" in err


@pytest.mark.parametrize("argv, sieves", [
    pytest.param(("eval", "--family", "r1", "--n", str(10**18)),
                 [10**9 + 1], id="eval"),
    pytest.param(("verify", "--suite", "identities", "--x", str(10**18)), [],
                 id="verify"),
    pytest.param(("verify", "--suite", "oracle", "--x", str(10**18)), [],
                 id="verify-oracle"),
    pytest.param(("verify", "--suite", "all", "--x", str(10**18)), [],
                 id="verify-all"),
    pytest.param(("calibrate", "--grid-max", str(10**18)), [],
                 id="calibrate"),
    pytest.param(("moments", "--family", "r0", "--x", str(10**18)), [],
                 id="moments"),
])
def test_verb_tables_honour_spf_cap(monkeypatch, tmp_path, capsys, argv,
                                    sieves):
    """A verb at x = 1e18 needs primes to 1e9 and no spf array.  eval may
    build that table, with the boolean sieve alone; a verb whose x is past
    its cap exits 3 before any sieve runs."""
    class Recorded(Exception):
        pass

    asked = []

    def recorder(n):
        asked.append(n)
        raise Recorded  # stop before the sieve allocates anything

    monkeypatch.setattr(arith, "_spf_sieve", recorder)
    monkeypatch.setattr(arith, "_bool_sieve", recorder)
    monkeypatch.chdir(tmp_path)  # where verify --suite all finds constants
    (tmp_path / cli.DEFAULT_CONSTANTS).write_text(
        "".join(f"{k} = 1.0\n" for k in asymp.CONSTANT_KEYS))
    if sieves:
        with pytest.raises(Recorded):
            cli.main(list(argv))
    else:
        assert cli.main(list(argv)) == 3
        assert "capacity: x = 1000000000000000000 exceeds" in (
            capsys.readouterr().err)
    assert asked == sieves


def test_oracle_suite_cap(monkeypatch, table, capsys):
    """Past ORACLE_MAX_X the oracle suite stops before its per-n loop."""
    def no_factor(*args):
        raise AssertionError("the per-n loop ran")

    monkeypatch.setattr(arith, "factor", no_factor)
    over = acceptance.ORACLE_MAX_X + 1
    with pytest.raises(CapacityError, match="ORACLE_MAX_X"):
        acceptance.check_oracle(table, x=over)
    code, out, err = run(capsys, "verify", "--suite", "oracle", "--x",
                         str(over))
    assert (code, out) == (3, "")
    assert err == (f"capacity: x = {over} exceeds this verb's cap "
                   f"{acceptance.ORACLE_MAX_X}\n")


def test_sieve_demo(capsys):
    code, out, _ = run(capsys, "sieve-demo", "--count", "2", "--seed", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(line.endswith("true") for line in lines[1:])


def test_usage_errors(capsys):
    code, _, err = run(capsys, "moments", "--family", "zzz", "--x", "10")
    assert code == 2 and "family" in err
    code, _, err = run(capsys, "moments", "--family", "r0")
    assert code == 2
    code, _, err = run(capsys, "moments", "--family", "r0", "--x", "5",
                       "--power", "1", "--binomial", "2")
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2


@pytest.mark.parametrize("flag, value, name", [
    ("--segment-size", "0", "segment_size"),
    ("--segment-size", "-5", "segment_size"),
    ("--workers", "0", "workers"),
    ("--workers", "-3", "workers"),
], ids=["0", "-5", "workers=0", "workers=-3"])
def test_segment_size_below_one_is_a_usage_error(capsys, flag, value, name):
    code, out, err = run(capsys, "moments", "--family", "r0", "--x", "1000",
                         "--power", "2", flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: {name} must be >= 1\n"


@pytest.mark.parametrize("argv", [
    ("eval", "--family", "r0", "--n", "25", "--workers", "2"),
    ("verify", "--suite", "argmax", "--segment-size", "4096"),
    ("sieve-demo", "--cutoff", "5"),
    ("calibrate", "--cutoff", "5"),
], ids=lambda argv: argv[0])
def test_verbs_reject_flags_they_do_not_read(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


def test_capacity_exit_code(capsys):
    code, _, err = run(capsys, "moments", "--family", "r0", "--x",
                       str(10**10))
    assert code == 3
    assert "capacity" in err
    code, _, err = run(capsys, "table", "--limit", str(3 * 10**9))
    assert code == 3


def test_workers_default_honours_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    args = cli._build_parser().parse_args(["zeroth", "--family", "r0",
                                           "--x", "10"])
    assert args.workers == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    args = cli._build_parser().parse_args(["zeroth", "--family", "r0",
                                           "--x", "10"])
    assert args.workers == 1


@pytest.mark.parametrize("x", [None, 10**6, 2 * 10**8])
def test_verify_table_covers_x(capsys, monkeypatch, x):
    seen = []

    def fake_suite(name, table, constants=None, workers=1, x=None):
        seen.append(table)
        return [acceptance.CheckResult("stub", True, "")]

    monkeypatch.setattr(acceptance, "run_suite", fake_suite)
    argv = ["verify", "--suite", "identities"]
    if x is not None:
        argv += ["--x", str(x)]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    (table,) = seen
    assert table.limit >= max(math.isqrt(x or 0), 10**4 - 1)
    assert table.spf_limit == 0


def test_no_scipy_import():
    # the runtime is numpy plus the standard library: repnum.cli imports
    # every repnum module, and none of them may pull scipy into a process
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, repnum.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
