"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines, or ``zodom verify --suite paper`` for the same checks from the CLI.
All checks are exact; there are no tolerances to calibrate.
"""

import hashlib

import pytest

from zodom.cli import main
from zodom.verify import CRITERIA, DEFAULT_SEED, run_paper_suite


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in run_paper_suite(DEFAULT_SEED)}


def _check(results, number):
    r = results[number]
    print(r.line())
    assert r.ok, f"{r.name}: {r.detail}"
    return r


def test_criterion_01_classification_table(results):
    r = _check(results, 1)
    assert "8/8" in r.detail


def test_criterion_02_witness_sets(results):
    _check(results, 2)


def test_criterion_03_trace_exactness(results):
    r = _check(results, 3)
    assert "b=0" in r.detail and "b>0" in r.detail


def test_criterion_04_alpha_isomorphism(results):
    r = _check(results, 4)
    assert "100 round trips" in r.detail and "50" in r.detail


def test_criterion_05_duality(results):
    r = _check(results, 5)
    assert "2080 lattices" in r.detail and "20 nested" in r.detail


def test_criterion_06_oe_invariant(results):
    _check(results, 6)


def test_criterion_07_d1_collapse(results):
    r = _check(results, 7)
    assert "50 pairs" in r.detail


def test_criterion_08_implication_chain(results):
    _check(results, 8)


def test_criterion_09_measure_metric(results):
    _check(results, 9)


def test_criterion_10_torsion_free(results):
    r = _check(results, 10)
    assert r.detail == "10 quotients, Schreier generators span G"


def test_criterion_11_rigid(results):
    _check(results, 11)


def test_every_criterion_has_a_test(results):
    assert sorted(results) == list(range(1, len(CRITERIA) + 1))


# the stdout of ``zodom verify --suite paper`` at the default seed, less the
# verdict line; a speed-up must leave every line of it unchanged
PINNED_OUTPUT = """\
criterion_01_classification_table=PASS
criterion_01_detail=8/8 table entries exact
criterion_02_witness_sets=PASS
criterion_02_detail=iso witnesses 2, coe witnesses 2, no det=+1 witness in bound
criterion_03_trace_exactness=PASS
criterion_03_detail=100 exact traces (b=0: 37, b>0: 63)
criterion_04_alpha_isomorphism=PASS
criterion_04_detail=100 round trips, 50 explicit coboundary differences
criterion_05_duality=PASS
criterion_05_detail=2080 lattices, 20 nested squares
criterion_06_oe_invariant=PASS
criterion_06_detail=coinvariants = superindex = depth-6 oracle
criterion_07_d1_collapse=PASS
criterion_07_detail=four verdicts identical on 50 pairs
criterion_08_implication_chain=PASS
criterion_08_detail=100 ordered pairs consistent
criterion_09_measure_metric=PASS
criterion_09_detail=three towers of depth 4 verified
criterion_10_torsion_free=PASS
criterion_10_detail=10 quotients, Schreier generators span G
criterion_11_rigid=PASS
criterion_11_detail=levels 1-3: primes, exercises, cyclicity, dual balls
"""


def test_suite_output_is_pinned(results):
    lines = []
    for n in sorted(results):
        lines += [results[n].line(), f"criterion_{n:02d}_detail={results[n].detail}"]
    assert "\n".join(lines) + "\n" == PINNED_OUTPUT


@pytest.mark.parametrize("seed", [7, 21])
def test_seed_independent_details_pinned_at_other_seeds(seed):
    # these criteria print details that do not depend on the seed
    for number in (4, 5, 9, 10):
        ok, detail = CRITERIA[number - 1](seed)
        assert ok
        assert f"criterion_{number:02d}_detail={detail}\n" in PINNED_OUTPUT


# sha256 of the full stdout of ``zodom verify --suite paper --seed N``, the
# verdict line included; a speed-up must leave every byte unchanged
SUITE_DIGESTS = {
    7: "030650877a0e29b93a35bc88cebe87d623244fb44ecd440115f337f21f6f7562",
    21: "24077c313ece3172bd333977ece9824bdc045f287e046548da9c79c7fdec136d",
}


@pytest.mark.parametrize("seed", sorted(SUITE_DIGESTS))
def test_suite_output_is_pinned_at_other_seeds(capsys, seed):
    assert main(["verify", "--suite", "paper", "--seed", str(seed)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == SUITE_DIGESTS[seed]


def test_criterion_04_fails_without_explicit_coboundary(monkeypatch):
    from zodom.cohomology import CoboundarySolver
    from zodom.verify import criterion_4_alpha_isomorphism

    monkeypatch.setattr(CoboundarySolver, "solve", lambda self, theta: None)
    assert criterion_4_alpha_isomorphism(DEFAULT_SEED) == (False, "explicit coboundary failed")


def test_criterion_06_fails_when_coinvariants_raise(monkeypatch):
    from zodom.hgroup import superindex
    from zodom.linalg import Supernatural
    from zodom.verify import criterion_6_oe_invariant

    monkeypatch.setattr(
        "zodom.cohomology.superindex",
        lambda h: Supernatural({p: e for p, e in superindex(h).items if p != 2}),
    )
    assert criterion_6_oe_invariant(DEFAULT_SEED) == (
        False,
        "coinvariants for class11_fuchs: level 2 index 2 does not divide the superindex 3^inf*5^1",
    )


def test_suite_is_deterministic():
    # same seed, same outcomes; spot-checked on the seeded-random criteria
    from zodom.verify import criterion_3_trace_exactness, criterion_7_d1_collapse

    for fn in (criterion_3_trace_exactness, criterion_7_d1_collapse):
        assert fn(DEFAULT_SEED) == fn(DEFAULT_SEED)


def test_cli_verify_reports_and_exit(monkeypatch, capsys):
    # the CLI wiring: criterion lines plus a final verdict, exit 0 iff all pass
    from zodom.verify import CriterionResult

    fake = [
        CriterionResult(1, "classification_table", True, "stub"),
        CriterionResult(2, "witness_sets", True, "stub"),
    ]
    monkeypatch.setattr("zodom.cli.run_paper_suite", lambda seed: fake)
    code = main(["verify", "--suite", "paper"])
    out = capsys.readouterr().out
    assert code == 0
    assert "criterion_01_classification_table=PASS" in out
    assert out.strip().splitlines()[-1] == "verdict=PASS"

    fake.append(CriterionResult(3, "trace_exactness", False, "stub failure"))
    code = main(["verify", "--suite", "paper"])
    out = capsys.readouterr().out
    assert code == 1
    assert "criterion_03_trace_exactness=FAIL" in out
    assert out.strip().splitlines()[-1] == "verdict=FAIL"


def test_cli_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == 65
