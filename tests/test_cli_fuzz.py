"""CLI fuzz: every input ends in exit code 0, 1 or 2, never a traceback or a
failed internal self-check.

Drives ``cli.run`` in-process with transformation texts that are either
well formed over random field elements or random strings over the
characters of the transformation grammar.  Texts that are well formed but
for one element in another field's format must be usage errors.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from orbitfactor import cli

GRAMMAR_CHARS = "0123456789x[],+-*/()"


@st.composite
def elements(draw, p, m):
    if m == 1:
        return str(draw(st.integers(-2 * p, 2 * p)))
    coords = draw(st.lists(st.integers(-p, 2 * p), min_size=1, max_size=m))
    return "[" + ",".join(map(str, coords)) + "]"


@st.composite
def wrong_format_elements(draw, p, m):
    """Element text in another field's format: a bracketed vector over a
    prime field, or a vector longer than m."""
    size = draw(st.integers(1 if m == 1 else m + 1, m + 2))
    coords = draw(st.lists(st.integers(-p, 2 * p), min_size=size, max_size=size))
    return "[" + ",".join(map(str, coords)) + "]"


@st.composite
def transformations(draw, p, m):
    a, b, c, d = (draw(elements(p, m)) for _ in range(4))
    shape = draw(st.sampled_from(["({a}x+{b})/({c}x+{d})", "({a}*x-{b})/({c}*x+{d})",
                                  "{a}x+{b}", "({b})/(x+{d})", "x"]))
    return shape.format(a=a, b=b, c=c, d=d)


@st.composite
def wrong_format_transformations(draw, p, m):
    """A well-formed transformation but for one element in another field's format."""
    values = {name: draw(elements(p, m)) for name in "abcd"}
    shape, names = draw(st.sampled_from([("({a}x+{b})/({c}x+{d})", "abcd"),
                                         ("{a}x+{b}", "ab"), ("({b})/(x+{d})", "bd")]))
    values[draw(st.sampled_from(names))] = draw(wrong_format_elements(p, m))
    return shape.format(**values)


@st.composite
def wrong_format_cases(draw, command, fields):
    p, m = draw(st.sampled_from(fields))
    flag = "--s" if command == "factor" else "--gens"
    return [command, "--p", str(p), "--m", str(m), flag, draw(wrong_format_transformations(p, m))]


@st.composite
def cases(draw, command, fields):
    p, m = draw(st.sampled_from(fields))
    text = draw(st.one_of(transformations(p, m),
                          st.text(GRAMMAR_CHARS, min_size=0, max_size=16)))
    flag = "--s" if command == "factor" else "--gens"
    return [command, "--p", str(p), "--m", str(m), flag, text]


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert "Traceback" not in err.getvalue()
    # a failed self-check means a bug, never a malformed input
    assert "InvariantViolation" not in err.getvalue()
    # element text in another field's format is a usage error
    assert "CtxMismatchError" not in err.getvalue()
    return code


FUZZ = settings(derandomize=True, deadline=None, max_examples=150,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(cases("factor", [(p, m) for p in (2, 3, 5, 7) for m in (1, 2)]))
def test_factor_fuzz_exits_cleanly(argv):
    assert _exit_code(argv) in (0, 1, 2)


@FUZZ
@given(cases("orbit-poly", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]))
def test_orbit_poly_fuzz_exits_cleanly(argv):
    assert _exit_code(argv) in (0, 1, 2)


@FUZZ
@given(st.sampled_from(["factor", "orbit-poly"]).flatmap(
    lambda command: wrong_format_cases(command, [(2, 1), (3, 1), (7, 1), (2, 2), (3, 2), (2, 3)])))
def test_wrong_format_fuzz_is_usage_error(argv):
    assert _exit_code(argv) == 1
