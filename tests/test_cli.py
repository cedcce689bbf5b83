import pytest

from zodom.cli import EX_DATA, EX_USAGE, main
from zodom.rigid import GALLERY_TEXTS


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

    free2 = grp("free2", "oplus(Z[1/2], Z[1/2]) + gen(1/9, 0)")
    sheared = grp("sheared", "mat([1,0;3,1]) * oplus(Z[1/2], Z[1/2]) + gen(1/9, 0)")
    code, out = run(capsys, "classify", "--relation", "iso", "--bound", "2", free2, sheared)
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


def test_superindex_example(grp, capsys):
    code, out = run(capsys, "superindex", grp("class35_3a"))
    assert code == 0
    assert out.strip() == "superindex=2^inf*3^inf*5^inf"


def test_tau_example(capsys):
    code, out = run(capsys, "tau", "--lattice", "[2,1;0,3]", "--h", "1/2,0")
    assert code == 0
    assert out.strip() == "tau=(1/2, 0)"


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


def test_rigid_verb(capsys):
    code, out = run(capsys, "rigid", "--levels", "2", "--verify")
    assert code == 0
    assert "level_1.a=3" in out and "level_1.det=11" in out
    assert "level_2.k_constant=10" in out
    assert "level_1.exercise_5=pass" in out
    assert "cyclicity=pass" in out
    assert "deviation=" in out


def test_usage_errors(capsys):
    assert main(["not-a-verb"]) == EX_USAGE
    assert main([]) == EX_USAGE
    assert main(["classify", "--relation", "nope", "a", "b"]) == EX_USAGE


@pytest.mark.parametrize(
    "verb, option",
    [
        ("tower", "--depth"),
        ("simulate", "--depth"),
        ("spectrum", "--height"),
        ("h1", "--depth"),
        ("coinv", "--depth"),
        ("rigid", "--levels"),
    ],
)
def test_count_below_one_is_usage_error(grp, capsys, verb, option):
    argv = [verb] + ([] if verb == "rigid" else [grp("class35_1a")]) + [option, "0"]
    assert main(argv) == EX_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and "at least 1" in captured.err
    assert "Traceback" not in captured.err


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
