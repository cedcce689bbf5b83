import contextlib
import hashlib
import io
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zodom
from zodom.cli import EX_DATA, EX_SOFTWARE, EX_USAGE, main
from zodom.gdsl import format_vec
from zodom.hgroup import superindex
from zodom.linalg import Lattice, Supernatural
from zodom.rigid import GALLERY_TEXTS

from helpers import spectrum
from test_hgroup import local_groups


@pytest.fixture()
def grp(tmp_path):
    def write(name, text=None):
        path = tmp_path / f"{name}.grp"
        path.write_text((text or GALLERY_TEXTS[name]) + "\n", encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_classify_iso_example(grp, capsys):
    a, b = grp("class35_1a"), grp("class35_1b")
    code, out = run(capsys, "classify", "--relation", "iso", a, b)
    assert code == 0
    lines = out.strip().splitlines()
    assert "witness=mat([0,1;1,0])" in lines
    assert lines[-1] == "verdict=YES"


def test_classify_exit_codes(grp, capsys):
    a, b = grp("class35_3a"), grp("class35_3b")
    code, out = run(capsys, "classify", "--relation", "coe", a, b)
    assert code == 1
    assert out.strip().splitlines()[-1] == "verdict=NO"
    assert "certificate=line-map" in out
    code, out = run(capsys, "classify", "--relation", "oe", a, b)
    assert code == 0

    # one divisible line: every witness has an entry of size >= 3
    one_line = grp("one_line", "oplus(Z[1/2], Z[1/10]) + gen(1/9, 0)")
    sheared = grp("sheared", "mat([1,0;3,1]) * oplus(Z[1/2], Z[1/10]) + gen(1/9, 0)")
    code, out = run(capsys, "classify", "--relation", "iso", "--bound", "2", one_line, sheared)
    assert code == 2
    assert out.strip().splitlines()[-1] == "verdict=UNKNOWN"


def test_classify_cross_dimension(grp, capsys):
    a, b = grp("class35_4a"), grp("class35_4b")  # d = 2 vs d' = 1
    code, out = run(capsys, "classify", "--relation", "oe", a, b)
    assert code == 0 and "verdict=YES" in out
    code, out = run(capsys, "classify", "--relation", "iso", a, b)
    assert code == 1
    assert "certificate=dimension" in out


def test_classify_all_witnesses(grp, capsys):
    a, b = grp("class11_fuchs"), grp("class11_fuchs_swapped")
    code, out = run(capsys, "classify", "--relation", "coe", "--all-witnesses", a, b)
    assert code == 0
    assert "witness_count=2" in out
    assert "witness_1=mat([0,1;1,0])" in out
    assert "witness_2=mat([0,-1;-1,0])" in out


def test_classify_coe_rank0_residue_pair(grp, capsys):
    # lambda = 1/2 at the rank-2 prime 2 fixes the residue at the rank-0
    # prime 13: diag(1/2, 2) maps gen(1/13, 1/169) to gen(1/13, 4/169)
    base = "oplus(Z[1/14], Z[1/22])"
    a = grp("residue_a", f"{base} + gen(1/13, 1/169)")
    b = grp("residue_b", f"{base} + gen(1/13, 4/169)")
    code, out = run(capsys, "classify", "--relation", "coe", a, b)
    assert code == 0
    assert "witness=mat([1/2,0;0,2])" in out.splitlines()
    assert out.strip().splitlines()[-1] == "verdict=YES"


def test_python_m_zodom_runs_main(grp, capsys):
    # `python -m zodom` runs the same main: stdout and exit code (1, NO)
    argv = ["classify", "--relation", "coe", grp("class35_3a"), grp("class35_3b")]
    code, out = run(capsys, *argv)
    env = {**os.environ, "PYTHONPATH": str(Path(zodom.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "zodom", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert code == 1 and "verdict=NO" in out
    assert (proc.returncode, proc.stdout) == (code, out)


def test_import_loads_neither_dataclasses_nor_inspect():
    # every CLI call is a fresh process, so what importing zodom loads is
    # paid on each one; inspect (which dataclasses imports) brings ast and dis
    code = "import sys, zodom.cli, zodom.verify; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(zodom.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_superindex_example(grp, capsys):
    code, out = run(capsys, "superindex", grp("class35_3a"))
    assert code == 0
    assert out.strip() == "superindex=2^inf*3^inf*5^inf"


def test_tau_example(capsys):
    code, out = run(capsys, "tau", "--lattice", "[2,1;0,3]", "--h", "1/2,0")
    assert code == 0
    assert out.strip() == "tau=(1/2, 0)"
    code, out = run(capsys, "tau", "--lattice", "[2,0,0;0,3,0;0,1,1]", "--h", "1/2,0,0")
    assert code == 0
    assert out == "tau=(1/2, 0, 0)\n"


def test_repeated_calls_share_no_parsed_state(grp, capsys):
    # the parser is built once: a --depth given to one call must not leak into the next
    path = grp("two_primes", "oplus(Z[1/2], Z[1/3])")
    for argv, count in ((["--depth", "2"], 2), ([], 4)):
        code, out = run(capsys, "tower", path, *argv)
        assert code == 0
        levels = [line.split("=")[0] for line in out.splitlines() if line.startswith("level_")]
        assert levels == [f"level_{n}" for n in range(1, count + 1)]


def test_dual_example(capsys):
    code, out = run(capsys, "dual", "--lattice", "[1/2,0;0,1]")
    assert code == 0
    assert out.strip() == "dual=mat([2,0;0,1])"


def test_parse_and_canon(grp, capsys):
    f = grp("class11_fuchs")
    code, out = run(capsys, "parse", f)
    assert code == 0
    assert "expr=oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)" in out
    code, out = run(capsys, "canon", f)
    assert code == 0
    assert "support=2,3,5" in out
    assert "local_5.lattice=mat([1/5,0;1/5,1])" in out


def test_member_and_equal_and_free(grp, capsys):
    f = grp("class11_fuchs")
    code, out = run(capsys, "member", f, "--vector", "1/5,1/5")
    assert code == 0 and out.strip() == "member=true"
    code, out = run(capsys, "member", f, "--vector", "1/5,0")
    assert code == 0 and out.strip() == "member=false"
    a, b = grp("class35_1a"), grp("class35_1b")
    code, out = run(capsys, "equal", a, a)
    assert out.strip() == "equal=true"
    code, out = run(capsys, "equal", a, b)
    assert out.strip() == "equal=false"
    code, out = run(capsys, "equal", a, grp("class35_4b"))  # d = 2 vs d = 1
    assert code == 0 and out.strip() == "equal=false"
    code, out = run(capsys, "free", a)
    assert out.strip() == "free=true"
    nf = grp("halfline", "oplus(Z[1/2], Z)")
    code, out = run(capsys, "free", nf)
    assert out.strip() == "free=false"


def test_tower_and_spectrum(grp, capsys):
    code, out = run(capsys, "tower", grp("class35_1a"), "--depth", "2")
    assert code == 0
    assert "dual_2=mat([2,0;0,1])" in out
    assert "index_2=2" in out
    code, out = run(capsys, "spectrum", grp("class35_4b"), "--height", "3")
    assert "count=4" in out and "ev_2=(1/3)" in out


def test_simulate_deterministic(grp, capsys):
    f = grp("class35_1a")
    code, out1 = run(capsys, "simulate", f, "--depth", "3", "--steps", "6")
    assert code == 0
    _, out2 = run(capsys, "simulate", f, "--depth", "3", "--steps", "6")
    assert out1 == out2  # byte-identical across runs
    assert "measure=1/6" in out1


def test_h1_and_coinv(grp, capsys):
    f = grp("class35_1a")
    code, out = run(capsys, "h1", f, "--depth", "3")
    assert code == 0
    assert "h1_support=2,3" in out
    code, out = run(capsys, "coinv", f)
    assert code == 0
    assert "coinvariants=2^inf*3^inf" in out


def test_h1_builds_no_duals(grp, capsys, monkeypatch):
    # h1 prints the levels H_n only, so it reads them without their duals
    def no_dual(self):
        raise AssertionError("h1 built a dual")

    monkeypatch.setattr(Lattice, "dual", no_dual)
    code, out = run(capsys, "h1", grp("class11_fuchs"), "--depth", "12")
    assert code == 0 and "level_12=" in out


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError(), "error=MemoryError"),
        (RecursionError("maximum recursion depth exceeded"),
         "error=RecursionError: maximum recursion depth exceeded"),
        # not a resource error: any other uncaught exception is a defect
        (ValueError("unexpected state"), "error=ValueError: unexpected state"),
    ],
)
def test_resource_errors_exit_70_not_no(grp, capsys, monkeypatch, exc, line):
    # Python's default handler exits 1 on an uncaught exception, and 1 means NO
    def fail(*args):
        raise exc

    monkeypatch.setattr("zodom.cli.spectrum_numerators", fail)
    code, out = run(capsys, "spectrum", grp("class11_fuchs"), "--height", "5")
    assert code == EX_SOFTWARE == 70
    assert out == line + "\n"


D8_TEXT = (
    "oplus(Z[1/2], Z[1/3], Z[1/5], Z[1/7], Z[1/11], Z[1/13], Z[1/17], Z[1/19])"
    " + gen(1/23, 1/23, 1/23, 1/23, 1/23, 1/23, 1/23, 1/23)"
)


def _under_a_memory_limit(*argv):
    """``zodom`` with ``argv`` in a child that limits its own address space
    to 600 MB."""
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (600_000_000, 600_000_000))\n"
        "from zodom.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(zodom.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=60,
    )

def test_spectrum_refuses_the_d8_case_under_a_memory_limit(grp):
    # 3,491,888,422 eigenvalues up to height 30, refused from the prime
    # counts before any component is listed
    proc = _under_a_memory_limit("spectrum", grp("d8", D8_TEXT), "--height", "30")
    assert proc.returncode == EX_DATA
    assert proc.stdout == "error=spectrum up to height 30 has more than 100000 eigenvalues\n"


def test_spectrum_refuses_a_large_prime_power_under_a_memory_limit(grp):
    # 2, 59,049 and 5 components at 2, 3 and 5 pass the prime counts; the
    # 78,732 sums over 2 and 3 pass the cap, and 5 takes the count to 131,220
    text = "oplus(Z[1/9]) + oplus(Z) + gen(-7/10) + gen(5)"
    proc = _under_a_memory_limit("spectrum", grp("deep3", text), "--height", "82101")
    assert proc.returncode == EX_DATA
    assert proc.stdout == "error=spectrum up to height 82101 has more than 100000 eigenvalues\n"


def test_tau_refuses_a_large_quotient_under_a_memory_limit():
    # 9,000,000 cosets pass COCYCLE_MAX_CARD: refused before any table is
    # built, where building them runs out of memory
    proc = _under_a_memory_limit("tau", "--lattice", "[3000,0;0,3000]", "--h", "1/2,0")
    assert proc.returncode == EX_DATA
    assert proc.stdout == "error=quotient has 9000000 cosets, more than 1000000\n"


@given(st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_spectrum_report_matches_fraction_spectrum(d, data):
    # the report printed from the integer numerators equals the text of
    # the Fractions of the spectrum helper through format_vec
    h = data.draw(local_groups(d))
    height = data.draw(st.integers(1, 6 if d == 3 else 10))
    eigs = spectrum(h, height)
    expected = "".join(
        [f"count={len(eigs)}\n", *(f"ev_{k}={format_vec(ev)}\n" for k, ev in enumerate(eigs, 1))]
    )
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr("zodom.cli._load_group", lambda path: h)
        code = main(["spectrum", "group.grp", "--height", str(height)])
    assert code == 0
    assert out.getvalue() == expected


def test_coinv_fuchs_at_depth_6(grp, capsys):
    # level 6 has 720 cosets; the level check reads only its index
    code, out = run(capsys, "coinv", grp("class11_fuchs"), "--depth", "6")
    assert code == 0
    assert out == "coinvariants=2^inf*3^inf*5^1\nverified_levels=6\n"


def test_coinv_fuchs_at_depth_12(grp, capsys):
    # level 12 has 1,244,160 cosets, and no quotient is built
    code, out = run(capsys, "coinv", grp("class11_fuchs"), "--depth", "12")
    assert code == 0
    assert out == "coinvariants=2^inf*3^inf*5^1\nverified_levels=12\n"


def test_coinv_exits_70_when_a_level_index_fails(grp, capsys, monkeypatch):
    # a superindex without 2 cannot be divided by the index 2 of level 2
    monkeypatch.setattr(
        "zodom.cohomology.superindex",
        lambda h: Supernatural({p: e for p, e in superindex(h).items if p != 2}),
    )
    code, out = run(capsys, "coinv", grp("class11_fuchs"), "--depth", "12")
    assert code == EX_SOFTWARE
    assert out == "error=ArithmeticError: level 2 index 2 does not divide the superindex 3^inf*5^1\n"


def test_classify_d3_unknown_prints_the_flag(grp, capsys):
    # a d = 3 pair outside the zero-line tier is UNKNOWN for iso and COE,
    # and the report says the necessity half is proven for d <= 2 only
    base = "oplus(Z[1/2],Z[1/3],Z[1/5]) + gen(1/7,1/7,0)"
    a = grp("d3_a", base)
    b = grp("d3_b", f"mat([1,1,0;0,1,0;0,2,1]) * {base}")
    for relation in ("iso", "coe"):
        code, out = run(capsys, "classify", "--relation", relation, a, b)
        assert code == 2
        assert out == (
            f"relation={relation}\n"
            "certificate=search-exhausted: no decision procedure for d >= 3\n"
            "flag=necessity proven for d <= 2 only\nverdict=UNKNOWN\n"
        )


def test_classify_d3_equal_groups_list_both_signs(grp, capsys):
    # H = H' in d = 3: I and -I are witnesses, since -I.H = -H = H
    a = grp("d3", "oplus(Z[1/2], Z[1/3], Z[1/5])")
    code, out = run(capsys, "classify", "--relation", "iso", "--all-witnesses", a, a)
    assert code == 0
    assert out == (
        "relation=iso\nwitness=mat([1,0,0;0,1,0;0,0,1])\nwitness_count=2\n"
        "witness_1=mat([1,0,0;0,1,0;0,0,1])\nwitness_2=mat([-1,0,0;0,-1,0;0,0,-1])\n"
        "verdict=YES\n"
    )
    code, out = run(capsys, "classify", "--relation", "iso", a, a)
    assert out == "relation=iso\nwitness=mat([1,0,0;0,1,0;0,0,1])\nverdict=YES\n"


# sha256 of the stdout of the tower verbs and `spectrum` at the approximants
# benchmark's depths and heights and of `canon`; a rewrite of the tower, the
# spectrum or the local presentation must leave every byte unchanged
TOWER_TEXTS = {
    "approx_g": "oplus(Z[1/3], Z[1/2]) + gen(4/7, 1/7)",
    "quarter": "oplus(Z[1/2], Z[1/3]) + gen(1/4, 1/4)",
    "d3": "oplus(Z[1/2], Z[1/3], Z[1/6]) + gen(1/5, 2/5, 0)",
}
# pinned in TOWER_DIGESTS only: the pairwise digests below run over TOWER_TEXTS
DENSE_TEXT = "oplus(Z[1/6], Z[1/6]) + gen(1/5, 0) + gen(0, 1/5)"
TOWER_DIGESTS = [
    ("tower class11_fuchs --depth 12", "7d5218b169fee3bcd999cc1fcecc0ef3112a0e03d537142275913321f6250a4a"),
    ("tower approx_g --depth 12", "faa24c3a0613bf34e01ba555af3dcdfc575d2f6d13ac93eaf7d7657f20259725"),
    ("tower quarter --depth 12", "676684cd7b23b41324a17a9678b597a693730d3caba385ecb2121452c6f95329"),
    ("tower class35_4b --depth 12", "4b95e742776fc94f602f77e32108e06ed8a824063dc80fca3b266d16cc85bcef"),
    ("tower d3 --depth 9", "ec334231787ff9f542f50c2b3c5f932023c6e49f8cf0655a1b378be1d0727cba"),
    ("h1 class11_fuchs --depth 12", "0691269b5037db2c4a3c7cf7121926748392d8253e4a0d79edbaa78f0f194cf4"),
    ("h1 approx_g --depth 12", "63e5e3c5cba3fd77217d79068a80e1ae5801dfb0dcb8f516d91f845d57710030"),
    ("simulate class35_1a --depth 14 --steps 8", "22ab56a6c0dc7f4090a195c48b66a8b7801d8a535417b9a31cb450008ac9537a"),
    ("simulate class11_fuchs --depth 12 --steps 8", "537bb16c375ac5c2eb889a50208235fc2aba162ce1d7527bc7bcd2133bb89305"),
    ("coinv class11_fuchs --depth 6", "62bc544fa8afef423478ae873e21ce8ae7683d41d9f02dbc67afa8409897e264"),
    ("coinv approx_g --depth 6", "9b6b14a144c6ff1a4be085b25862a3787b59fc680fb2b9641683ed080fb5b7ad"),
    ("canon z2", "2f57242e6d8b7884852f944f23808fa5b2081694c8dee93e8d3bda7405f48769"),
    ("canon class35_1a", "2157c38591a364317d8ec1ee913297e63c0c9584cc3fae2d37f1d2109f5f4beb"),
    ("canon class35_1b", "c38f4fe276e3b903bf56fe25bf8853457c59a30a692918597351624742fd041c"),
    ("canon class35_2a", "6af7995ab14dcbe93b373d35aef2e15ca4fa498c6c4eceb5748c29c9ed254483"),
    ("canon class35_2b", "48ee653283515fbe360cdf96ae70e5733829253f87ce430ad57067112900558f"),
    ("canon class35_3a", "f0805f98c75c61b17f76da51a0c561c9e982b9ddf83af48ddfe1081bc84abea6"),
    ("canon class35_3b", "9c6111a3d43c9979e279314427cbe2f9f02f762e24c673795a3e2b89df92d192"),
    ("canon class35_4a", "2157c38591a364317d8ec1ee913297e63c0c9584cc3fae2d37f1d2109f5f4beb"),
    ("canon class35_4b", "7b22b585eb5ed8748d6feca4f9257dbfc5f9e1e69bd4a22c59b16c52f562d5ee"),
    ("canon class11_fuchs", "4651eb4e84ef4428b66cd7c99f2bc7c22133216c142a79174fd4e15f01751995"),
    ("canon class11_fuchs_swapped", "d84e6fbd1cd23509a9d6aa0438f97691bce3369937615fdf8dfe9ce5ba4f8cf6"),
    ("canon approx_g", "f4a87ce0f3365cffd3fd44c2556638ee73a90792080c3656dc18bd1b1f8cf121"),
    ("canon d3", "d4a4b303a4bdbf3e7e65e24933fa4bdbf9b371f0d97355564f055e873b8c9b55"),
    ("canon quarter", "2bf993c916e48beb61f3b9fa571ce23aa1376414bb4541b2336cbb50be6c7008"),
    ("canon dense", "90a24e5426e15e7e36ec372468830121c50edbdb8173dc38fd0f075988607402"),
    ("spectrum approx_g --height 24", "66b10589084f985902e187bf4b9c6c8956167146cc69c53fe0891f489794cd1f"),
    ("spectrum quarter --height 24", "3b46b72247df49f5ef701585064b456d5dcb60b59e79cd720e60dda2440056f1"),
    ("spectrum class11_fuchs --height 24", "46c926331d35b6d96e066e8324e8dac43414a871d04cb5245d1cbc985a418d8d"),
    ("spectrum class35_4b --height 24", "84c788814e34ab38ed4de60def26cba807d0e5ab7836442c666d64f09635a519"),
    ("spectrum d3 --height 10", "15ff74433f6b4171347bbc3501480072ecb12c13d6387f09bc1484a43e83b517"),
    ("spectrum dense --height 24", "271d9ac89ffc0f1db9511e4ae362a679371ba1ea7a83ff6a3f4cf5b47c1729e2"),
]


@pytest.mark.parametrize("command, digest", TOWER_DIGESTS, ids=[c for c, _ in TOWER_DIGESTS])
def test_tower_verbs_output_is_pinned(grp, capsys, command, digest):
    verb, name, *rest = command.split()
    code, out = run(capsys, verb, grp(name, {**TOWER_TEXTS, "dense": DENSE_TEXT}.get(name)), *rest)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of exit code and stdout over all ordered pairs of the gallery and
# tower groups, in the order of GALLERY_TEXTS then TOWER_TEXTS
PAIR_DIGESTS = [
    ("equal", "5293b7cf6b1536c38962cbfbd875801c65e7396e7a41846b6870cb302de06b32"),
    ("classify --relation conj", "733b6e3001bfd943f101918d99c67cd58c85dda251801f8e0f9a6eb1cedd7eee"),
    ("classify --relation coe", "0a9370d99c557cda7433e1aaaf7af55f1b610a0335b065f37cfecef6592ad0cb"),
]


@pytest.mark.parametrize("command, digest", PAIR_DIGESTS, ids=[c for c, _ in PAIR_DIGESTS])
def test_pair_verbs_output_is_pinned(grp, capsys, command, digest):
    paths = [grp(name, text) for name, text in {**GALLERY_TEXTS, **TOWER_TEXTS}.items()]
    sha = hashlib.sha256()
    for a, b in itertools.product(paths, repeat=2):
        code, out = run(capsys, *command.split(), a, b)
        sha.update(f"{code}\n{out}".encode())
    assert sha.hexdigest() == digest


def test_canon_of_noncanonical_lattices(grp, capsys):
    # L(p) is printed in its canonical form, (L(p) + V_p) n p^-k Z^d: these
    # printed the lattice as generated (mat([1/4,0;1/4,1]), mat([1/2,0;0,1])
    # and mat([1/2,0;0,1])) before it was canonical
    cases = [
        ("quarter", TOWER_TEXTS["quarter"], "mat([1/4,0;0,1/4])"),
        ("half", "oplus(Z[1/2], Z[1/3]) + gen(1/2, 0)", "mat([1,0;0,1])"),
        ("full_half", "oplus(Z[1/2], Z[1/2]) + gen(1/2, 0)", "mat([1,0;0,1])"),
    ]
    outs = {}
    for name, text, lattice in cases:
        code, outs[name] = run(capsys, "canon", grp(name, text))
        assert code == 0
        assert f"local_2.lattice={lattice}" in outs[name].splitlines()
    assert run(capsys, "canon", grp("class35_1a"))[1] == outs["half"]


def test_canon_is_the_same_for_equal_groups(grp, capsys):
    # one group written twice, the second time with extra generators
    # c e_i / p^j for Z[1/n] components with p | n, which the group holds
    rng = random.Random(4243)
    for k in range(60):
        d = rng.randint(1, 3)
        comps = [rng.choice([1, 2, 3, 6, 10]) for _ in range(d)]
        base = "oplus(" + ", ".join(f"Z[1/{n}]" if n > 1 else "Z" for n in comps) + ")"
        for _ in range(rng.randint(0, 2)):
            q = rng.choice([2, 3, 5])
            nums = [rng.randint(0, q * q - 1) for _ in comps]
            base += " + gen(" + ", ".join(f"{x}/{q * q}" for x in nums) + ")"
        more = base
        for i, n in enumerate(comps):
            for p in (2, 3, 5):
                if n % p == 0 and rng.random() < 0.7:
                    c, pj = rng.randint(1, 5), p ** rng.randint(1, 3)
                    coords = [f"{c}/{pj}" if j == i else "0" for j in range(d)]
                    more += " + gen(" + ", ".join(coords) + ")"
        a, b = grp(f"a{k}", base), grp(f"b{k}", more)
        assert run(capsys, "equal", a, b)[1] == "equal=true\n"
        assert run(capsys, "canon", a) == run(capsys, "canon", b), (base, more)


# the full report of `rigid --levels 3 --verify`
RIGID_3_VERIFY = [
    "deviation=induction start uses K_1 = 3 (the norm bound needs K >= 3); the"
    " alternative reading K_1 = 1 would give alpha_1 = [[1,1],[1,3]] with determinant 2",
    "level_1.a=3",
    "level_1.b=4",
    "level_1.det=11",
    "level_1.k_constant=3",
    "level_2.a=10",
    "level_2.b=11",
    "level_2.det=109",
    "level_2.k_constant=10",
    "level_3.a=180",
    "level_3.b=181",
    "level_3.det=32579",
    "level_3.k_constant=180",
    "level_1.exercise_1=pass",
    "level_1.exercise_2=pass",
    "level_1.exercise_3=pass",
    "level_1.exercise_4=pass",
    "level_1.exercise_5=pass",
    "level_1.exercise_2_note=as-written vectors (a,-1),(-1,b) fail; adjugate rows (b,-1),(-1,a) verified",
    "level_1.norm_bound=pass",
    "level_1.dual_ball=pass",
    "level_2.exercise_1=pass",
    "level_2.exercise_2=pass",
    "level_2.exercise_3=pass",
    "level_2.exercise_4=pass",
    "level_2.exercise_5=pass",
    "level_2.exercise_2_note=as-written vectors (a,-1),(-1,b) fail; adjugate rows (b,-1),(-1,a) verified",
    "level_2.norm_bound=pass",
    "level_2.dual_ball=pass",
    "level_3.exercise_1=pass",
    "level_3.exercise_2=pass",
    "level_3.exercise_3=pass",
    "level_3.exercise_4=pass",
    "level_3.exercise_5=pass",
    "level_3.exercise_2_note=as-written vectors (a,-1),(-1,b) fail; adjugate rows (b,-1),(-1,a) verified",
    "level_3.norm_bound=pass",
    "level_3.dual_ball=pass",
    "cyclicity=pass",
]


def test_rigid_verb(capsys):
    code, out = run(capsys, "rigid", "--levels", "2", "--verify")
    assert code == 0
    assert "level_1.a=3" in out and "level_1.det=11" in out
    assert "level_2.k_constant=10" in out
    assert "level_1.exercise_5=pass" in out
    assert "cyclicity=pass" in out
    assert "deviation=" in out
    code, out = run(capsys, "rigid", "--levels", "3", "--verify")
    assert code == 0
    assert out.splitlines() == RIGID_3_VERIFY


def test_rigid_verifies_level_5_quickly(capsys):
    # the norm bounds read one exact l1 minimum per level; at level 5 it is
    # 2385037201, far beyond any scan over the cosets
    start = time.perf_counter()
    code, out = run(capsys, "rigid", "--levels", "5", "--verify")
    assert time.perf_counter() - start < 2
    assert code == 0
    lines = out.splitlines()
    for line in (
        "level_5.a=2385037200",
        "level_5.b=2385037205",
        "level_5.det=5688402457309025999",
        "level_5.k_constant=2385037200",
    ):
        assert line in lines
    checks = [f"exercise_{item}" for item in range(1, 6)] + ["norm_bound", "dual_ball"]
    for n in range(1, 6):
        for check in checks:
            assert f"level_{n}.{check}=pass" in lines, (n, check)
    assert "=fail" not in out and lines[-1] == "cyclicity=pass"


def test_rigid_refuses_a_level_it_cannot_prove_prime(capsys, monkeypatch):
    # a determinant whose n - 1 does not factor within RHO_BUDGET Pollard-Brent
    # steps is refused (65), not guessed; at the default budget level 7 is the
    # first refused, after seconds of factoring, and a small budget refuses sooner
    monkeypatch.setattr("zodom.linalg.RHO_BUDGET", 16)
    start = time.perf_counter()
    code, out = run(capsys, "rigid", "--levels", "7")
    assert time.perf_counter() - start < 1
    assert code == EX_DATA
    assert out.splitlines()[-1].startswith("error=cannot prove ")


def test_usage_errors(capsys):
    assert main(["not-a-verb"]) == EX_USAGE
    assert main([]) == EX_USAGE
    assert main(["classify", "--relation", "nope", "a", "b"]) == EX_USAGE


@pytest.mark.parametrize(
    "verb, option",
    [
        ("tower", "--depth"),
        ("simulate", "--depth"),
        ("simulate", "--steps"),
        ("spectrum", "--height"),
        ("h1", "--depth"),
        ("coinv", "--depth"),
        ("rigid", "--levels"),
        ("classify", "--bound"),
    ],
)
def test_count_below_one_is_usage_error(grp, capsys, verb, option):
    operands = {
        "rigid": [],
        "classify": ["--relation", "iso", grp("class35_1a"), grp("class35_1b")],
    }.get(verb, [grp("class35_1a")])
    for value in ("0", "-3"):
        assert main([verb, *operands, option, value]) == EX_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and "at least 1" in captured.err
        assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["member", "{a}", "--vector=--"],
        ["tower", "{a}", "--depth=--"],
        ["dual", "--lattice=--"],
        ["tau", "--lattice=[2]", "--h=--"],
        ["classify", "--relation", "iso", "{a}", "{a}", "--bound=--"],
        ["rigid", "--levels=--"],
        ["verify", "--suite=--"],
        ["verify", "--seed=--"],
    ],
)
def test_option_value_of_two_dashes_is_usage_error(grp, capsys, argv):
    a = grp("class35_1a")
    assert main([arg.format(a=a) for arg in argv]) == EX_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: argument --")
    assert "expected one argument" in captured.err


def test_syntax_error_offset(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("oplus(Z[1/2], Q)", encoding="utf-8")
    code = main(["parse", str(bad)])
    out = capsys.readouterr().out
    assert code == EX_DATA
    assert "error=syntax" in out
    assert "offset=14" in out


def test_missing_file(capsys):
    assert main(["canon", "/nonexistent/x.grp"]) == EX_DATA


def test_not_free_input_rejected(grp, capsys):
    nf = grp("halfline", "oplus(Z[1/2], Z)")
    code, out = run(capsys, "classify", "--relation", "oe", nf, nf)
    assert code == EX_DATA
    assert "error=" in out


def test_bad_vector_and_matrix(capsys):
    assert main(["tau", "--lattice", "[2,1;0]", "--h", "1/2,0"]) == EX_DATA
    capsys.readouterr()
    assert main(["dual", "--lattice", "[1,2;2,4]"]) == EX_DATA
    capsys.readouterr()
    f_code = main(["tau", "--lattice", "[2,1;0,3]", "--h", "1/3,0"])
    assert f_code == EX_DATA
    capsys.readouterr()
    code, out = run(capsys, "tau", "--lattice", "[1/2,0;0,1]", "--h", "1,0")
    assert code == EX_DATA
    assert out == "error=quotient lattice must be integral\n"


@pytest.mark.parametrize(
    "value, offset, expected",
    [
        ("0.5,0", 1, "end of input"),
        ("1e3,0", 1, "end of input"),
        ("1_0,0", 1, "end of input"),
        ("١/٢,0", 0, "digit"),
        # Fraction reads these twelve bytes as a number of a million digits
        ("1e-1000000,0", 1, "end of input"),
    ],
)
@pytest.mark.parametrize("verb", ["member", "tau"])
def test_vector_outside_the_dsl_grammar_is_a_bad_vector(grp, capsys, verb, value, offset, expected):
    if verb == "member":
        argv = ["member", grp("class11_fuchs"), "--vector", value]
    else:
        argv = ["tau", "--lattice", "[2,1;0,3]", "--h", value]
    code, out = run(capsys, *argv)
    assert code == EX_DATA
    assert out == f"error=bad vector {value!r}: syntax error at offset {offset}: expected {expected}\n"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no limit")
def test_literal_beyond_the_int_conversion_limit_is_a_syntax_error(grp, capsys):
    # a literal that int() refuses is malformed input (65), not a failure (70)
    limit = sys.get_int_max_str_digits()
    digits = "1" * (limit + 1)
    code, out = run(capsys, "parse", grp("big", f"oplus(Z[1/{digits}])"))
    assert code == EX_DATA
    assert out == f"error=syntax\noffset=10\nexpected=at most {limit} digits\n"
    code, out = run(capsys, "dual", "--lattice", f"[{digits}]")
    assert code == EX_DATA
    assert out == f"error=bad matrix '[{digits}]': syntax error at offset 1: expected at most {limit} digits\n"


@pytest.mark.parametrize("h", ["1/2", "1/2,0,5"])
def test_tau_h_of_wrong_length(capsys, h):
    code, out = run(capsys, "tau", "--lattice", "[2,1;0,3]", "--h", h)
    assert code == EX_DATA
    assert out.startswith("error=") and "tau=" not in out


def test_parse_mixed_dimensions(grp, capsys):
    mixed = grp("mixed", "oplus(Z[1/2], Z[1/3]) + gen(1/5)")
    code, out = run(capsys, "parse", mixed)
    assert code == EX_DATA
    assert out == "error=summands have mixed dimensions [1, 2]\n"


def test_parse_and_canon_reject_singular_matrix(grp, capsys):
    sing = grp("sing", "mat([0,0;0,0]) * oplus(Z[1/2], Z[1/3])")
    for verb in ("parse", "canon"):
        code, out = run(capsys, verb, sing)
        assert code == EX_DATA, verb
        assert out == "error=matrix must be invertible\n", verb


def test_canon_square_of_large_prime(grp, capsys):
    # 3640410877657794241 = 1907986079^2: trial division alone would run to 1.9e9
    big = grp("big", "oplus(Z[1/3640410877657794241])")
    code, out = run(capsys, "canon", big)
    assert code == 0
    assert "support=1907986079" in out


def test_canon_large_prime_cofactor(grp, capsys):
    # 99999999999999999999999 = 3^2 * R23 with the repunit R23 prime
    big = grp("big", "oplus(Z[1/99999999999999999999999])")
    code, out = run(capsys, "canon", big)
    assert code == 0
    assert "support=3,11111111111111111111111" in out
    assert "local_11111111111111111111111.rank=1" in out


def test_canon_prime_above_the_miller_rabin_bound(grp, capsys):
    # n - 1 = 2 * 1658522032339943692981061 gives Pocklington's proof at once
    big = grp("big", "oplus(Z[1/3317044064679887385962123])")
    code, out = run(capsys, "canon", big)
    assert code == 0
    assert "support=3317044064679887385962123" in out


def test_canon_unproved_prime_is_data_error(grp, capsys, monkeypatch):
    # n - 1 = 130 * 10000000000037 * 30000000000011: with a small budget the
    # product of the two large primes stays unsplit, so no proof is found
    monkeypatch.setattr("zodom.linalg.RHO_BUDGET", 1 << 10)
    big = grp("big", "oplus(Z[1/39000000000158600000000052911])")
    code, out = run(capsys, "canon", big)
    assert code == EX_DATA
    assert out == (
        "error=cannot prove 39000000000158600000000052911 prime: "
        "n - 1 does not factor far enough\n"
    )
