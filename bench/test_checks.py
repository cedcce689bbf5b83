"""Tests for the benchmark's own checks: known-wrong outputs must come back
as failed operations.  Run with ``python3 -m unittest discover -s bench``
(or ``python3 -m pytest bench``); zodom itself is not imported.
"""

from __future__ import annotations

import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import corpus  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
from oracles import GroupSpec  # noqa: E402
from run import Op, tally  # noqa: E402


def decisions_for(pair_index, pair, answers, witness=None):
    """Both directions of every relation, with the given answers."""
    out = []
    for forward in (True, False):
        for rel in corpus.RELATIONS:
            w = witness if rel in ("iso", "coe") and answers[rel] == "YES" else None
            out.append(checks.Decision(pair_index, forward, rel, answers[rel], w))
    return out


class OracleTest(unittest.TestCase):
    def test_hand_values(self):
        self.assertEqual(oracles.legendre(14, 2), 11)
        self.assertEqual(oracles.legendre(14, 3), 5)
        self.assertEqual(oracles.sublattice_count(50), 2080)
        fuchs = GroupSpec.from_text("oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)")
        self.assertEqual(fuchs.level_index(12), 1244160)
        self.assertEqual(oracles.format_superindex(fuchs.superindex()), "2^inf*3^inf*5^1")
        self.assertTrue(fuchs.member((Fraction(3, 10), Fraction(2, 15))))
        self.assertFalse(fuchs.member((Fraction(1, 5), 0)))
        swapped = GroupSpec.from_text("mat([0,1;1,0]) * oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)")
        self.assertTrue(swapped.member((Fraction(1, 3), 0)))
        self.assertFalse(swapped.member((Fraction(1, 2), 0)))

    def test_rigid_oracle(self):
        self.assertEqual(oracles.rigid_levels(2)[0], (3, 4, 11, 3))


class ClassifyCheckTest(unittest.TestCase):
    def setUp(self):
        self.pairs = corpus.make_corpus(7)
        self.idx = next(i for i, p in enumerate(self.pairs) if p.kind == "uni_two_line")
        self.pair = self.pairs[self.idx]
        self.alpha = self.pair.b.mat
        self.right = {"conj": "NO", "iso": "YES", "coe": "YES", "oe": "YES"}

    def run_checks(self, answers, witness):
        ds = decisions_for(self.idx, self.pair, answers, witness)
        # the reverse direction needs the inverse witness
        for d in ds:
            if not d.forward and d.witness is not None:
                d.witness = oracles.inverse(d.witness)
        checks.check_decisions(self.pairs, ds)
        return ds

    def test_right_answers_pass(self):
        ds = self.run_checks(self.right, self.alpha)
        self.assertEqual([d.reasons for d in ds if d.reasons], [])

    def test_wrong_verdict_fails(self):
        ds = self.run_checks(dict(self.right, coe="NO"), self.alpha)
        failed = [d for d in ds if d.reasons]
        self.assertTrue(any(d.relation == "coe" for d in failed))
        attempted, nfailed, correct = tally([[Op("x", None, None, d.reasons) for d in ds]])
        self.assertGreater(nfailed, 0)
        self.assertFalse(correct)

    def test_det_two_witness_fails(self):
        bad = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]
        ds = self.run_checks(self.right, bad)
        self.assertTrue(all(d.reasons for d in ds if d.relation in ("iso", "coe")))

    def test_unknown_stress_is_the_known_fault(self):
        idx = len(self.pairs) - 1
        ds = [
            checks.Decision(idx, True, rel, ans, None)
            for rel, ans in (("conj", "NO"), ("iso", "UNKNOWN"), ("coe", "UNKNOWN"), ("oe", "YES"))
        ]
        checks.check_decisions(self.pairs, ds)
        attempted, nfailed, correct = tally([[Op("x", None, None, d.reasons) for d in ds]])
        self.assertEqual((attempted, nfailed, correct), (4, 2, True))

    def test_unknown_stress_conj_is_unexpected(self):
        idx = len(self.pairs) - 1
        ds = [
            checks.Decision(idx, True, rel, ans, None)
            for rel, ans in (("conj", "UNKNOWN"), ("iso", "NO"), ("coe", "YES"), ("oe", "YES"))
        ]
        ds[2].witness = [[Fraction(1, 5), Fraction(0)], [Fraction(0), Fraction(5)]]
        checks.check_decisions(self.pairs, ds)
        attempted, nfailed, correct = tally([[Op("x", None, None, d.reasons) for d in ds]])
        self.assertEqual((attempted, nfailed, correct), (4, 1, False))


class ApproximantCheckTest(unittest.TestCase):
    LINES = [
        "depth=4",
        "card=24",
        "measure=1/24",
        "step_1=(1, 0)",
        "step_2=(1, 1)",
        "metric_from_start=1/2",
    ]

    def oracle(self):
        spec = GroupSpec.from_text("oplus(Z[1/2], Z[1/3])")
        return checks.VerbOracle("simulate", spec, depth=4, steps=2)

    def test_hand_computed_output_passes(self):
        self.assertEqual(self.oracle().check(self.LINES, 0), [])

    def test_off_by_one_card_fails(self):
        lines = [line.replace("card=24", "card=25") for line in self.LINES]
        self.assertTrue(self.oracle().check(lines, 0))

    def test_wrong_step_fails(self):
        lines = [line.replace("step_2=(1, 1)", "step_2=(9, 1)") for line in self.LINES]
        self.assertTrue(self.oracle().check(lines, 0))


class TracerCountTest(unittest.TestCase):
    def test_raising_full_test_is_counted(self):
        t = tracer.Tracer()
        classify, hgroup = tracer.LAYERS.index("classify"), tracer.LAYERS.index("hgroup")
        applied = object()

        def apply_matrix(ok):
            if not ok:
                raise ValueError("not a supergroup")
            return applied

        apply_w = t._wrap(apply_matrix, "hgroup.apply_matrix", hgroup)
        equal_w = t._wrap(lambda a, b: a is applied, "hgroup.equal_h", hgroup)

        def test_witness(ok):
            try:
                return equal_w(apply_w(ok), None)
            except ValueError:
                return False

        search = t._wrap(lambda: [test_witness(ok) for ok in (False, True, False)], "classify.search", classify)
        self.assertEqual(search(), [False, True, False])
        metrics = t.metrics()
        self.assertEqual(metrics["classify.full_tests"][0], 3)
        self.assertEqual(metrics["hgroup.apply_matrix_calls"][0], 3)
        self.assertAlmostEqual(metrics["classify.witness_yield"][0], 1 / 3)


class PaperSuiteCheckTest(unittest.TestCase):
    def test_failed_criterion_counts(self):
        lines = [f"criterion_{n:02d}_x=PASS" for n in range(1, 12)]
        lines += ["criterion_03_detail=100 exact traces (b=0: 40, b>0: 60)"]
        lines += ["criterion_05_detail=2080 lattices, 20 nested squares", "verdict=PASS"]
        self.assertEqual([r for _, r in checks.check_paper_suite(lines, 0) if r], [])
        lines[6] = "criterion_07_x=FAIL"
        failed = [name for name, r in checks.check_paper_suite(lines, 0) if r]
        self.assertEqual(failed, ["criterion_07"])


if __name__ == "__main__":
    unittest.main()
