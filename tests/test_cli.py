import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import orbitfactor
from orbitfactor import classes as cl, cli, gf, verify


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# stdout and exit code of the README factor, lambda-report, orbit-poly and
# invariant --gens commands (plus factor on the quadratic-extension path, F_4,
# F_9, --k 2 over F_3 and F_4 and --k 3 over F_3, orbit-poly over a
# generating set of PGL(2,5), classes over F_3, F_8 and F_9 with and
# without --lambda, orbits over F_11, F_9 and the F_4 -> F_16 tower, and lang
# over F_2), text and --json; and, on fields of 257 to 4096 elements, lang
# over F_4 (F_1024), orbits --ext 3 over F_7 (F_343) and --ext 4 over F_5
# (F_625), and factor --k 2 over F_17 (F_289); factor over F_7 of
# s = 3x+1, with c = 0 and a raw leading entry other than 1; classes
# over F_13, F_16, F_17 with --lambda 5 and F_37, and over F_41, where
# PGL(2,41) is past the group-order cap (exit 2); and orbits of the order-6
# group <x+1, 1/x> on P^1(F_{2^13}), in the computed tier (--json), and of
# the order-10 group <3x, -1/x> on P^1(F_121); and factor over F_17 and
# orbit-poly over F_19 of elements of order q+1, whose families are read off
# a companion polynomial; and the README's classes over F_3 and over F_4 with
# --lambda [0,0], and invariant --pgl over F_3 and over F_7 (degree 336,
# where pgl_generator checks invariance at points instead of by composition;
# and lambda-report over F_8 and F_9, and orbit-poly and orbits --ext 2 of
# <x+1, 1/x> over F_8, whose ramification audit runs over F_64; and factor
# over F_263, in the computed tier, of -1/x and of -x, which has c = 0; and
# factor of tori over F_13 and F_16, whose family is T^q - T with companion
# fibres, of an order-13 element over F_25 and of an order-12 element over
# F_263 (22 factors), and lambda-report over F_13; and orbit-poly of A4 over
# F_11, regular of order q+1 but not cyclic, of the transitive dihedral group
# of order 16 over F_7, both with constants from F_{q^2}, and of <3x> over
# F_13, which fixes infinity and has a third orbit; and factor --k 2 over F_19
# of the paper's example, whose fixed points in F_361 merge into one
# quadratic, --k 2 over F_7 of x+1 (c = 0, A = 1), --k 3 over F_7 of 2x (split,
# c = 0) and of (3x-1)/(x+3), and --k 2 over F_5 of (2x+1)/(x+2) (split, c != 0))
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_output_is_byte_identical(capsys, case):
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])


def test_factor_headline(capsys):
    code, out, _ = run_cli(capsys, "factor", "--p", "19", "--m", "1",
                           "--s", "(-x-1)/(x-1)", "--oracle-check")
    assert code == 0
    assert "T^4 + 6*T^3 + 13*T^2 + 13*T + 1" in out
    assert "oracle check: PASS" in out
    assert "reconstruction: PASS" in out


def test_factor_seventeen_unit(capsys):
    code, out, _ = run_cli(capsys, "factor", "--p", "17", "--m", "1",
                           "--s", "(14x+13)/(6x+2)")
    assert code == 0
    assert "unit: 6" in out
    assert "T^3 + 15*T + 7" in out


def test_classes_q3(capsys):
    code, out, _ = run_cli(capsys, "classes", "--p", "3", "--m", "1")
    assert code == 0
    assert "5 conjugacy classes" in out
    assert "split-involution" in out and "nonsplit-involution" in out


def test_classes_lambda_flag(capsys):
    code, out, _ = run_cli(capsys, "classes", "--p", "4", "--m", "1", "--lambda", "inf")
    assert code == 2  # 4 is not prime: propagated module error
    code, out, _ = run_cli(capsys, "classes", "--p", "2", "--m", "2", "--lambda", "inf")
    assert code == 0
    assert "identity" in out


def test_lambda_report(capsys):
    code, out, _ = run_cli(capsys, "lambda-report", "--p", "7", "--m", "1",
                           "--s", "(3x-1)/(x+3)")
    assert code == 0
    assert "degree   2: 1" in out and "degree   8: 4" in out
    assert "total: 7 = q" in out


def test_lang(capsys):
    code, out, _ = run_cli(capsys, "lang", "--p", "3", "--m", "1", "--s", "x+1")
    assert code == 0
    assert "verified" in out


def test_lang_readme_command(capsys):
    code, out, _ = run_cli(capsys, "lang", "--p", "2", "--m", "1", "--s", "(1)/(x+1)")
    assert code == 0
    assert "t = (x+[0,0,1])/([0,0,1]*x+[1,0,1]) over GF(2^3)" in out.splitlines()


def test_lang_beyond_former_size_cap(capsys):
    code, out, _ = run_cli(capsys, "lang", "--p", "7", "--m", "1", "--s", "(3x-1)/(x+3)")
    assert code == 0
    assert "over GF(7^8)" in out and "verified" in out


def test_orbits(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--p", "7", "--m", "1",
                           "--gens", "(3x-1)/(x+3)", "--ext", "1")
    assert code == 0
    assert "ramification audit" in out and "PASS" in out


def test_invariant_pgl(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--p", "2", "--m", "1", "--pgl")
    assert code == 0
    assert "degree: 6" in out


def test_orbit_poly(capsys):
    code, out, _ = run_cli(capsys, "orbit-poly", "--p", "19", "--m", "1",
                           "--gens", "(-x-1)/(x-1)")
    assert code == 0
    assert "family:" in out


def test_orbit_poly_of_pgl_7_time_budget(capsys):
    # a generating set of PGL(2,7), |G| = 336: the expansion over F_7(x)
    # took about 22 s on a 2-vCPU host
    limit_s = 5.0
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "orbit-poly", "--p", "7", "--m", "1",
                           "--gens", "x+1", "3x", "(1)/(x)")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out.startswith("group order: 336\n")
    assert elapsed < limit_s, f"orbit-poly over PGL(2,7) took {elapsed:.2f}s"


def test_classes_lambda_time_budget(capsys):
    # an order-10 class of PGL(2,9): factoring the degree-720 f - lambda*g
    # for a witness took about 9 s on a 2-vCPU host
    cl._classes_by_key.cache_clear()
    limit_s = 2.0
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "classes", "--p", "3", "--m", "2", "--lambda", "[1,1]")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "lambda = [1,1] -> " in out
    assert elapsed < limit_s, f"classes --lambda over F_9 took {elapsed:.2f}s"


def test_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "factor", "--p", "19", "--m", "1",
                           "--s", "(-x-1)/(x-1)", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "orbitfactor/1"
    assert json.dumps(doc, indent=2, sort_keys=True) == out.rstrip("\n")
    assert len(doc["factors"]) == 5


def test_json_stable_across_runs(capsys):
    _, first, _ = run_cli(capsys, "classes", "--p", "3", "--m", "1", "--json")
    _, second, _ = run_cli(capsys, "classes", "--p", "3", "--m", "1", "--json")
    assert first == second


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "factor", "--p", "19")
    assert code == 1
    assert "usage error" in err


@pytest.mark.parametrize("argv", [
    ("factor", "--p", "7", "--s", "3x", "--k", "-1"),
    ("factor", "--p", "7", "--s", "3x", "--k", "0"),
    ("orbits", "--p", "7", "--gens", "3x", "--ext", "0"),
    ("orbits", "--p", "7", "--gens", "3x", "--ext", "-1"),
])
def test_nonpositive_degree_is_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("factor", "--p", "2", "--m", "2", "--s", "([0,1]x+1)/(x+[1,1])"),
    ("factor", "--p", "7", "--s", "(2x+4)/(x+2)"),
    ("lang", "--p", "7", "--s", "0"),
])
def test_singular_transformation_is_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("usage error:") and "singular" in err


@pytest.mark.parametrize("argv", [
    ("factor", "--p", "7", "--m", "1", "--s", "[1]x+1"),
    ("factor", "--p", "2", "--m", "2", "--s", "[1,1,1]x+1"),
])
def test_element_in_the_wrong_format_is_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("usage error:")


def test_unknown_command_exit_code(capsys):
    code, _, err = run_cli(capsys, "not-a-command")
    assert code == 1


def test_module_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "lambda-report", "--p", "7", "--m", "1", "--s", "x+1")
    assert code == 2
    assert "WrongOrder" in err


def test_verify_suite_filtered(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "paper-examples", "--p", "19")
    assert code == 0
    assert "[PASS]" in out


def test_verify_p_and_m_select_q(capsys):
    want = [name for name, q, _ in verify._REGISTRY["paper-examples"] if q == 4]
    assert want
    for argv in (("--p", "2", "--m", "2"), ("--p", "4")):
        code, out, _ = run_cli(capsys, "verify", "--suite", "paper-examples", *argv,
                               "--json")
        assert code == 0
        assert [r["name"] for r in json.loads(out)["results"]] == want


def test_bad_size_cap_is_a_typed_error(capsys, monkeypatch):
    gf.field_create(3, 1)  # a cached field still reads the cap
    monkeypatch.setenv("ORBITFACTOR_SIZE_CAP", "abc")
    code, out, err = run_cli(capsys, "classes", "--p", "3", "--m", "1")
    assert code == 2 and not out
    assert err.startswith("error: SizeCapError:")
    assert "ORBITFACTOR_SIZE_CAP" in err and "'abc'" in err


# each command checks p^m or q^k against a cap; with exponent 10^8 the
# power, if formed, takes far longer than the timeout
HUGE_EXPONENT = {
    "classes --p 3 --m 100000000":
        (2, "", "error: SizeCapError: 3^100000000 exceeds the size cap 1048576\n"),
    "factor --p 7 --m 1 --s x+1 --k 100000000":
        (2, "", "error: SizeCapError: 7^100000000 exceeds the size cap\n"),
    "orbits --p 3 --m 1 --gens x+1 --ext 100000000":
        (2, "", "error: SizeCapError: 3^100000000 points exceed the enumeration cap\n"),
    "verify --suite lemmas --p 3 --m 100000000": (2, "0/0 checks passed\n", ""),
}


@pytest.mark.parametrize("command", HUGE_EXPONENT)
def test_a_huge_exponent_is_rejected_without_its_power(command):
    src = str(Path(orbitfactor.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "ORBITFACTOR_SIZE_CAP"}
    proc = subprocess.run([sys.executable, "-m", "orbitfactor.cli", *command.split()],
                          capture_output=True, text=True, env=dict(env, PYTHONPATH=path),
                          timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == HUGE_EXPONENT[command]


def test_verify_checks_run_below_the_default_size_cap():
    # so the CLI need not form a p^m above it to select no check
    assert all(0 < q <= gf.DEFAULT_SIZE_CAP for checks in verify._REGISTRY.values()
               for _, q, _ in checks)


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemmas", "--p", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] == doc["total"] > 0


def run_python(code, *argv):
    """The JSON document on the last stdout line of `python -c code argv` in a
    fresh interpreter that imports this package from the tree under test."""
    src = str(Path(orbitfactor.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# runs `python -m orbitfactor.cli argv` and reports its exit code and the
# package modules it loaded
CLI_MODULES = """
import json, runpy, sys
try:
    runpy.run_module("orbitfactor.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m.split(".")[1] for m in sys.modules
                               if m.startswith("orbitfactor."))]))
"""


# command -> (modules it must load, modules it must not load)
LOADS = {
    "classes --p 3 --m 1": ({"classes"}, {"verify", "structfactor", "invariants"}),
    "orbits --p 3 --m 1 --gens x+1": ({"grouporbit"},
                                      {"verify", "structfactor", "invariants", "classes"}),
    "factor --p 19 --m 1 --s (-x-1)/(x-1)": ({"structfactor"}, {"verify", "classes"}),
    "verify --suite lemmas --p 3": ({"verify", "classes", "structfactor"}, set()),
}


@pytest.mark.parametrize("command", LOADS)
def test_command_loads_only_the_modules_it_runs(command):
    loaded, absent = LOADS[command]
    code, modules = run_python(CLI_MODULES, *command.split())
    assert code == 0
    assert loaded <= set(modules) and not absent & set(modules)


def test_submodules_load_on_first_use():
    before, bound = run_python(
        "import json, sys, orbitfactor\n"
        "before = sorted(m for m in sys.modules if m.startswith('orbitfactor.'))\n"
        "bound = {n: type(getattr(orbitfactor, n)).__name__ for n in orbitfactor.__all__}\n"
        "print(json.dumps([before, bound]))")
    assert before == ["orbitfactor.errors"]
    assert bound == {name: "type" if name == "AlgebraError" else "module"
                     for name in orbitfactor.__all__}
    with pytest.raises(AttributeError):
        orbitfactor.no_such_module


def test_star_import_binds_every_public_name():
    same = run_python(
        "import json\n"
        "from orbitfactor import *\n"
        "import orbitfactor\n"
        "print(json.dumps({n: globals()[n] is getattr(orbitfactor, n) "
        "for n in orbitfactor.__all__}))")
    assert same == {name: True for name in orbitfactor.__all__}
