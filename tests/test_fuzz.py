"""Generated group texts through the parser and the file-reading CLI verbs.

Every input must end in a report or a documented error: ``gdsl.parse``
returns an expression or raises one of the DSL's errors, and ``cli.main``
returns one of the exit codes 0/1/2/64/65 without an uncaught exception.
Integer literals stay below 10**6, so the primes that ``factorint`` meets
are small enough to be confirmed quickly; ``coinv``, which walks the
finite quotients, reads texts whose literals stay at most 12, and so do
``simulate``, ``spectrum`` and ``classify``.  ``tau`` and ``dual`` read
square lattices of size 1 to 3 with entries in [-4, 4]; ``tau`` ends in the
trace h or an ``error=`` line.
"""

import contextlib
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zodom import gdsl
from zodom.cli import main
from zodom.gdsl import format_vec

EXIT_CODES = {0, 1, 2, 64, 65}
LITERAL = 10**6 - 1

small = st.integers(0, 12)
nat = st.one_of(small, st.integers(0, LITERAL))


@st.composite
def rat(draw, num=nat, den=nat):
    text = ("-" if draw(st.booleans()) else "") + str(draw(num))
    if draw(st.booleans()):
        text += f"/{draw(den)}"
    return text


def items(dim, lit):
    comp = st.one_of(st.just("Z"), lit.map(lambda n: f"Z[1/{n}]"))
    oplus = st.lists(comp, min_size=dim, max_size=dim).map(lambda cs: f"oplus({', '.join(cs)})")
    gen = st.lists(rat(lit, lit), min_size=dim, max_size=dim).map(lambda v: f"gen({', '.join(v)})")
    return st.one_of(oplus, oplus, gen)


@st.composite
def group_text(draw, lit=nat):
    """A sum of items, mostly of one dimension, optionally under mat(...);
    lit draws the integer literals of the items."""
    dim = draw(st.integers(1, 3))
    parts = draw(st.lists(items(dim, lit), min_size=1, max_size=3))
    if draw(st.booleans()):
        parts.append(draw(items(draw(st.integers(1, 3)), lit)))
    text = " + ".join(parts)
    if draw(st.booleans()):
        n = draw(st.sampled_from([dim, dim, dim % 3 + 1]))
        entry = rat(small, lit)
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        text = f"mat([{';'.join(','.join(r) for r in rows)}]) * {text}"
    return text


# a few characters of the grammar's neighbourhood, Unicode digits and
# whitespace included, for texts that are not group expressions
noise = st.text(alphabet="Z[]1/0239(),;+*- opluseganmt#\n\t²٣ ", max_size=40)


@st.composite
def mutated(draw, lit=nat):
    """A group text with one character deleted, doubled or replaced."""
    text = draw(group_text(lit))
    at = draw(st.integers(0, len(text) - 1))
    new = draw(st.sampled_from(["", text[at] * 2, "(", ")", ",", "/", "²", " ", "-"]))
    return text[:at] + new + text[at + 1 :]


texts = st.one_of(group_text(), group_text(), mutated(), noise)
small_texts = st.one_of(group_text(small), group_text(small), mutated(small), noise)


@given(texts)
@settings(max_examples=300, deadline=None)
def test_parse_returns_or_raises_dsl_error(text):
    try:
        gdsl.parse(text)
    except (gdsl.GdslSyntaxError, gdsl.BadDenominatorError, gdsl.DimensionMismatchError):
        pass


@pytest.fixture(scope="module")
def grp_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "g.grp"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in EXIT_CODES
    assert "Traceback" not in err.getvalue()
    if code == 65:
        assert out.getvalue().startswith("error=")
    return code


def _run_verb(grp_path, text, argv):
    grp_path.write_text(text + "\n", encoding="utf-8")
    return _run([argv[0], str(grp_path), *argv[1:]])


def _run_pair(grp_path, texts, argv):
    """argv[0] on two files, the second next to grp_path, then the options."""
    other = grp_path.with_name("h.grp")
    grp_path.write_text(texts[0] + "\n", encoding="utf-8")
    other.write_text(texts[1] + "\n", encoding="utf-8")
    _run([argv[0], str(grp_path), str(other), *argv[1:]])


VERBS = [("parse",), ("free",), ("superindex",), ("canon",), ("tower", "--depth", "2"), ("h1", "--depth", "2")]


@given(text=texts, argv=st.sampled_from(VERBS))
@settings(max_examples=200, deadline=None)
def test_cli_verbs_end_in_a_report_or_an_error(grp_path, text, argv):
    _run_verb(grp_path, text, argv)


@given(text=small_texts, depth=st.sampled_from(["1", "3"]))
@settings(max_examples=100, deadline=None)
def test_coinv_ends_in_a_report_or_an_error(grp_path, text, depth):
    _run_verb(grp_path, text, ("coinv", "--depth", depth))


vectors = st.one_of(
    st.lists(rat(), min_size=1, max_size=3).map(",".join),
    st.text(alphabet="0123/,- .e٣", max_size=8),
)


@given(text=texts, vector=vectors)
@settings(max_examples=150, deadline=None)
def test_member_ends_in_a_report_or_an_error(grp_path, text, vector):
    _run_verb(grp_path, text, ("member", f"--vector={vector}"))


# characters outside a vector's grammar, which has ASCII digits, "/", ",",
# "-" and whitespace; "#" is left out, since it starts a comment there too
foreign = st.sampled_from(".e+_x٣²")


@st.composite
def foreign_vectors(draw):
    """A vector of two small rationals with one foreign character inserted."""
    text = ",".join(draw(st.lists(rat(small, small), min_size=2, max_size=2)))
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(foreign) + text[at:]


@given(foreign_vectors())
@settings(max_examples=100, deadline=None)
def test_member_never_accepts_a_vector_with_a_foreign_character(grp_path, vector):
    assert _run_verb(grp_path, "oplus(Z[1/2], Z[1/3])", ("member", f"--vector={vector}")) != 0


@given(a=texts, b=texts)
@settings(max_examples=100, deadline=None)
def test_equal_ends_in_a_report_or_an_error(grp_path, a, b):
    _run_pair(grp_path, (a, b), ("equal",))


@given(text=small_texts, depth=st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_simulate_ends_in_a_report_or_an_error(grp_path, text, depth):
    _run_verb(grp_path, text, ("simulate", "--depth", str(depth)))


@given(text=small_texts, height=st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_spectrum_ends_in_a_report_or_an_error(grp_path, text, height):
    _run_verb(grp_path, text, ("spectrum", "--height", str(height)))


@given(a=small_texts, b=small_texts, relation=st.sampled_from(["conj", "iso", "coe", "oe"]))
@settings(max_examples=150, deadline=None)
def test_classify_ends_in_a_verdict_or_an_error(grp_path, a, b, relation):
    _run_pair(grp_path, (a, b), ("classify", "--relation", relation, "--bound", "2"))


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_rigid_verify_ends_in_a_report(levels):
    _run(["rigid", "--levels", str(levels), "--verify"])


@st.composite
def square_lattice(draw, n):
    """A square --lattice text of n rows with entries in [-4, 4]."""
    entries = st.lists(st.integers(-4, 4).map(str), min_size=n, max_size=n)
    rows = draw(st.lists(entries, min_size=n, max_size=n))
    return "[" + ";".join(",".join(r) for r in rows) + "]"


@given(st.integers(1, 3).flatmap(square_lattice))
@settings(max_examples=150, deadline=None)
def test_dual_ends_in_a_lattice_or_an_error(lattice):
    _run(["dual", f"--lattice={lattice}"])


@st.composite
def tau_arguments(draw):
    """A square --lattice text of 1 to 3 rows with entries in [-4, 4], and
    a small rational --h, mostly of the lattice's length."""
    n = draw(st.integers(1, 3))
    lattice = draw(square_lattice(n))
    size = draw(st.sampled_from([n, n, n % 3 + 1]))
    h = draw(st.lists(rat(st.integers(0, 6), st.integers(0, 6)), min_size=size, max_size=size))
    return lattice, ",".join(h)


@given(tau_arguments())
@settings(max_examples=200, deadline=None)
def test_tau_ends_in_the_trace_or_an_error(arguments):
    lattice, h = arguments
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["tau", "--lattice", lattice, f"--h={h}"])
    assert "Traceback" not in err.getvalue()
    if code == 0:
        # tau(theta_h) = h whenever h lies in the dual of the lattice
        assert out.getvalue() == f"tau={format_vec(tuple(Fraction(x) for x in h.split(',')))}\n"
    else:
        assert code == 65
        assert out.getvalue().startswith("error=")


@given(data=st.binary(max_size=24), verb=st.sampled_from(["parse", "canon"]))
@settings(max_examples=50, deadline=None)
def test_cli_reads_arbitrary_bytes(grp_path, data, verb):
    grp_path.write_bytes(b"oplus(Z[1/2]) + " + data)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([verb, str(grp_path)])
    assert code in EXIT_CODES


def test_non_ascii_digit_is_a_syntax_error():
    with pytest.raises(gdsl.GdslSyntaxError) as info:
        gdsl.parse("oplus(Z, Z) + gen(², 0)")
    assert info.value.offset == 18


@pytest.mark.parametrize("verb", ["parse", "free", "superindex", "canon"])
def test_group_without_the_integer_lattice_is_an_input_error(grp_path, verb):
    grp_path.write_text("mat([2]) * oplus(Z)\n", encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([verb, str(grp_path)])
    assert code in EXIT_CODES
    if verb != "parse":
        assert code == 65 and out.getvalue() == "error=image group does not contain Z^1 locally at 2\n"


def test_file_that_is_not_utf8_is_an_input_error(grp_path):
    grp_path.write_bytes(b"\xffoplus(Z)")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["canon", str(grp_path)])
    assert code == 65
    assert out.getvalue() == f"error=cannot read {grp_path}: not UTF-8 at byte 0\n"
