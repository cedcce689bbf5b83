"""zodom benchmark: paper_suite, classify_mix and approximants.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]   # all three

Run from the repository root; zodom is imported from ``src/``.  One
workload runs in one process, closed loop, one caller, one operation at a
time: set-up, then whole timed passes over the workload's operations until
``--seconds`` have passed.  Set-up is measured again in fresh child
processes, before and after the passes, and their median is ``setup_s``.  Every output is checked against the oracles in
``oracles.py`` and the properties in ``checks.py``; a wrong output counts
as a failed operation.  Times are normalized to a reference host speed by
the probes in ``hostspeed.py``.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 1`` reports the per-layer metrics instead: it runs set-up and one
pass untraced, installs the tracer (``tracer.py``), repeats both traced,
writes the spans under ``bench/out/`` and reports the difference in wall
time as ``trace.overhead_s``.  Without ``--workload`` each workload
runs in its own child process and a table is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import corpus  # noqa: E402
from hostspeed import REF_S, HostSpeed  # noqa: E402
from oracles import GroupSpec  # noqa: E402

WORKLOADS = ("paper_suite", "classify_mix", "approximants")
SETUP_MIN, SETUP_S = 5, 2.5  # set-up children before, and again after, the timed passes


class BenchError(Exception):
    """The benchmark cannot run here (no sources, a child failed)."""


def import_zodom():
    src = ROOT / "src"
    if not (src / "zodom" / "__init__.py").is_file():
        raise BenchError(f"no zodom sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import zodom.classify
    import zodom.cli
    import zodom.gdsl
    import zodom.verify

    return zodom


def run_cli(zodom, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = zodom.cli.main(argv)
    return rc, buf.getvalue().splitlines()


class Op:
    """One operation: its name, start, latency and the reasons it failed."""

    __slots__ = ("name", "start", "seconds", "reasons")

    def __init__(self, name, start, seconds, reasons):
        self.name = name
        self.start = start
        self.seconds = seconds
        self.reasons = reasons


# ---------------------------------------------------------------------------
# workloads: built with their inputs; run_pass() is timed, check() turns its
# raw outputs into Ops, latencies() gives the latency samples of one pass


class PaperSuite:
    """`zodom verify --suite paper --seed <seed>` through zodom.cli.main.

    Its operations are the eleven criteria and the verdict; its latency
    samples are the decide() calls of the implication-chain criterion, timed
    at verify's reference: the gallery's free groups, so the same 428
    decisions on every seed.  The d = 1 criterion's 200 decisions are drawn
    from the seed and cost about as much as the chain's median, so with them
    the median would move with the seed's mix.  After the pass, outside the
    timed region, each chain decision is made REPLAYS times more, and its
    latency is the median of its calls, as in ClassifyMix.
    """

    CHAIN = "criterion_8_implication_chain"
    REPLAYS = 2

    def __init__(self, zodom, seed, workdir):
        self.zodom = zodom
        self.argv = ["verify", "--suite", "paper", "--seed", str(seed)]
        self.decide_log: list[tuple] = []  # (args, kwargs, start, seconds)

    @contextlib.contextmanager
    def _timed_decisions(self, log):
        verify = self.zodom.verify
        inner = verify.decide
        pos = next(i for i, fn in enumerate(verify.CRITERIA) if fn.__name__ == self.CHAIN)
        chain = verify.CRITERIA[pos]
        in_chain = [False]

        def timed(*args, **kwargs):
            if not in_chain[0]:
                return inner(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                log.append((args, kwargs, t0, time.perf_counter() - t0))

        def timed_chain(seed):
            in_chain[0] = True
            try:
                return chain(seed)
            finally:
                in_chain[0] = False

        verify.decide = timed
        verify.CRITERIA[pos] = timed_chain
        try:
            yield
        finally:
            verify.decide = inner
            verify.CRITERIA[pos] = chain

    def run_pass(self):
        self.decide_log = []
        with self._timed_decisions(self.decide_log):
            return run_cli(self.zodom, self.argv)

    def check(self, raw):
        rc, lines = raw
        return [Op(name, None, None, reasons) for name, reasons in checks.check_paper_suite(lines, rc)]

    def latencies(self, ops, host):
        decide = self.zodom.verify.decide
        rounds = [[(t0, dt) for _, _, t0, dt in self.decide_log]]
        host.start()
        try:
            for _ in range(self.REPLAYS):
                calls = []
                for args, kwargs, _, _ in self.decide_log:
                    t0 = time.perf_counter()
                    decide(*args, **kwargs)
                    calls.append((t0, time.perf_counter() - t0))
                rounds.append(calls)
        finally:
            host.stop()
        host.probe()
        return [statistics.median(host.latency(t0, t0 + dt) for t0, dt in calls) for calls in zip(*rounds)]


class ClassifyMix:
    """classify.decide for all four relations on the seeded corpus.

    A pass decides the corpus ROUNDS times, then the stress pair once.  A
    decision's latency is the median of its rounds, which lie seconds apart
    on a host whose speed swings within seconds.  Each round takes the pairs
    in its own seeded order, so that the cheap d = 1 decisions, which set
    the median, are spread over the round rather than timed in one block of
    a fraction of a second.
    """

    ROUNDS = 3

    def __init__(self, zodom, seed, workdir):
        self.zodom = zodom
        self.pairs = corpus.make_corpus(seed)
        parse = zodom.gdsl.parse_group
        self.groups = [(parse(p.text_a), parse(p.text_b)) for p in self.pairs]
        rng = random.Random(seed)
        rest = [i for i, p in enumerate(self.pairs) if p.kind != "stress"]
        self.orders = [rng.sample(rest, len(rest)) for _ in range(self.ROUNDS)]
        self.stress = [i for i, p in enumerate(self.pairs) if p.kind == "stress"]

    def _decide_all(self, indexes):
        decide = self.zodom.classify.decide
        clock = time.perf_counter
        decisions = []
        for idx in indexes:
            pair, (ga, gb) = self.pairs[idx], self.groups[idx]
            directions = ((True, ga, gb), (False, gb, ga)) if pair.both_ways else ((True, ga, gb),)
            for forward, x, y in directions:
                for rel in corpus.RELATIONS:
                    t0 = clock()
                    v = decide(rel, x, y)
                    dt = clock() - t0
                    wit = None if v.witness is None else [list(r) for r in v.witness.rows]
                    decisions.append(checks.Decision(idx, forward, rel, v.answer, wit, (t0, dt)))
        return decisions

    def run_pass(self):
        return [self._decide_all(order) for order in self.orders] + [self._decide_all(self.stress)]

    def check(self, batches):
        ops = []
        for decisions in batches:
            checks.check_decisions(self.pairs, decisions)
            for d in decisions:
                kind = self.pairs[d.pair_index].kind
                name = f"{kind}#{d.pair_index}{'' if d.forward else 'r'}.{d.relation}"
                ops.append(Op(name, d.timing[0], d.timing[1], d.reasons))
        return ops

    def latencies(self, ops, host):
        return median_by_name(ops, host)


class Approximants:
    """CLI verbs on gallery-style groups; the seed picks the gen numerators.

    Its operations are the verb calls and its latency samples the verbs: a
    pass runs each verb but `rigid` (6 s) ROUNDS times, the QUICK ones three
    times a round, and a verb's latency is the median of its calls, as in
    ClassifyMix.
    """

    ROUNDS = 3
    QUICK = ("free", "superindex", "tower", "h1")

    def __init__(self, zodom, seed, workdir):
        self.zodom = zodom
        rng = random.Random(seed)
        u, v = rng.randint(1, 4), rng.randint(1, 4)
        w, z = rng.randint(1, 6), rng.randint(1, 6)
        groups = {
            "a": GroupSpec((2, 3)),
            "f": GroupSpec((2, 3), [(Fraction(u, 5), Fraction(v, 5))]),
            "g": GroupSpec((3, 2), [(Fraction(w, 7), Fraction(z, 7))]),
        }
        paths = {}
        for name, spec in groups.items():
            path = Path(workdir) / f"{name}.grp"
            path.write_text(spec.to_text() + "\n", encoding="utf-8")
            paths[name] = str(path)
        V = checks.VerbOracle
        a, f, g = groups["a"], groups["f"], groups["g"]
        # Sized so that the median falls mid-way through the six tower and h1
        # calls and p90 between the two spectra, which cost about the same.
        self.verbs = [(["free", paths[k]], V("free", groups[k])) for k in "afg"]
        self.verbs += [(["superindex", paths[k]], V("superindex", groups[k])) for k in "afg"]
        self.verbs += [(["tower", paths[k], "--depth", "12"], V("tower", groups[k], depth=12)) for k in "afg"]
        self.verbs += [(["h1", paths[k], "--depth", "12"], V("h1", groups[k], depth=12)) for k in "afg"]
        self.verbs += [
            (["simulate", paths["a"], "--depth", "14", "--steps", "8"], V("simulate", a, depth=14, steps=8)),
            (["simulate", paths["f"], "--depth", "12", "--steps", "8"], V("simulate", f, depth=12, steps=8)),
            (["coinv", paths["f"], "--depth", "5"], V("coinv", f, depth=5)),
            (["coinv", paths["g"], "--depth", "6"], V("coinv", g, depth=6)),
            (["spectrum", paths["f"], "--height", "24"], V("spectrum", f, height=24)),
            (["spectrum", paths["g"], "--height", "24"], V("spectrum", g, height=24)),
            (["rigid", "--levels", "3", "--verify"], V("rigid", None, levels=3, verify=True)),
        ]

    def run_pass(self):
        """ROUNDS rounds of every verb but the last, then the last (rigid)
        once.  A round runs the QUICK verbs, among whose latencies the
        median falls, before its first slow verb and after every third."""
        quick = [k for k, (argv, _) in enumerate(self.verbs) if argv[0] in self.QUICK]
        slow = [k for k in range(len(self.verbs) - 1) if k not in quick]
        round_ = []
        for n, k in enumerate(slow):
            if n % 3 == 0:
                round_ += quick
            round_.append(k)
        order = (round_ + quick) * self.ROUNDS + [len(self.verbs) - 1]
        outputs = []
        for k in order:
            t0 = time.perf_counter()
            rc, lines = run_cli(self.zodom, self.verbs[k][0])
            outputs.append((k, t0, time.perf_counter() - t0, rc, lines))
        return outputs

    def check(self, outputs):
        ops = []
        for k, t0, dt, rc, lines in outputs:
            argv, oracle = self.verbs[k]
            name = " ".join(a if not a.endswith(".grp") else Path(a).stem for a in argv)
            ops.append(Op(name, t0, dt, oracle.check(lines, rc)))
        return ops

    def latencies(self, ops, host):
        return median_by_name(ops, host)


def median_by_name(ops, host):
    """One latency per operation name: the median over its rounds, each
    taken at the reference host speed."""
    rounds = {}
    for op in ops:
        rounds.setdefault(op.name, []).append(host.latency(op.start, op.start + op.seconds))
    return [statistics.median(v) for v in rounds.values()]


CLASSES = {"paper_suite": PaperSuite, "classify_mix": ClassifyMix, "approximants": Approximants}


# ---------------------------------------------------------------------------
# one workload in this process


def measure_setup(name, seed):
    """Times of fresh processes that import zodom and build the inputs: at
    least SETUP_MIN of them, and more until SETUP_S seconds have passed.

    Each is timed from just before it is started until its inputs are built
    (its exit is left out), less the probe bursts it runs itself, and taken
    at the reference speed by those bursts.  Probes taken in the child track
    the speed it ran at far better than probes in this process: over eight
    runs a workload, the spread of setup_s fell from 8-32 % to 4-7 %.  Yet
    one child's time still varies by 10-20 % within a run, so setup_s is
    the median of many (about 20 where set-up takes 0.1 s), taken both
    before and after the timed passes.
    perf_counter is CLOCK_MONOTONIC, so the two processes' readings compare.
    """
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN or time.perf_counter() - start < SETUP_S:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        probe_s, built, *samples = map(float, proc.stdout.split())
        times.append((built - t0 - probe_s) / (statistics.median(samples) / REF_S))
    return times


def setup_child(name, seed):
    """Build the inputs as a run does; print the seconds spent probing, the
    time the inputs were built and the probe samples (two bursts before
    ``import zodom``, two after the build)."""
    host = HostSpeed()
    t0 = time.perf_counter()
    host.probe(2)
    probe_s = time.perf_counter() - t0
    zodom = import_zodom()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        CLASSES[name](zodom, seed, workdir)
        built = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host.probe(2)
    print(probe_s, built, *host.samples)


def passes(work, seconds, host):
    """Whole timed passes until `seconds` have elapsed (at least one).  The
    outputs are checked between passes, outside the timed region.  Pass
    times and latencies are taken at the reference host speed."""
    walls, raw_walls, op_lists, latencies = [], [], [], []
    start = time.perf_counter()
    while True:
        host.probe()
        host.start()
        try:
            t0 = time.perf_counter()
            raw = work.run_pass()
            t1 = time.perf_counter()
        finally:
            host.stop()
        host.probe()
        walls.append(host.normalize(t0, t1))
        raw_walls.append(host.busy(t0, t1))
        ops = work.check(raw)
        op_lists.append(ops)
        latencies.extend(work.latencies(ops, host))
        if time.perf_counter() - start >= seconds:
            return walls, raw_walls, op_lists, latencies


def tally(op_lists):
    """(attempted, failed, correct): correct unless a failure is unexpected."""
    flat = [op for ops in op_lists for op in ops]
    failed = [op for op in flat if op.reasons]
    unexpected = [op for op in failed if any(r != checks.KNOWN_FAULT for r in op.reasons)]
    for op in unexpected[:20]:
        print(f"FAILED {op.name}: {'; '.join(op.reasons)}", file=sys.stderr)
    return len(flat), len(failed), not unexpected


def run_workload(name, seed, seconds):
    setup_times = measure_setup(name, seed)
    zodom = import_zodom()
    host = HostSpeed()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        work = CLASSES[name](zodom, seed, workdir)
        walls, raw_walls, op_lists, latencies = passes(work, seconds, host)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_times += measure_setup(name, seed)
    slowness = statistics.median(host.samples) / REF_S
    print(f"{name}: measured pass seconds {[round(w, 3) for w in raw_walls]}, "
          f"median host slowness {slowness:.3f}", file=sys.stderr)
    attempted, failed, correct = tally(op_lists)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "decide_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "decide_p90_ms": (1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8], "ms"),
    }
    return correct, attempted, failed, metrics, len(walls)


def trace_workload(name, seed):
    """Set-up and one pass untraced, then the same traced; the per-layer
    metrics and the difference in wall time, both walls taken at the
    reference host speed from probe bursts before and after."""
    from tracer import Tracer

    zodom = import_zodom()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    host = HostSpeed()
    tracer = Tracer()
    try:
        host.probe(3)
        t0 = time.perf_counter()
        work = CLASSES[name](zodom, seed, workdir)
        untraced = work.check(work.run_pass())
        t1 = time.perf_counter()
        host.probe(3)
        plain_wall = host.normalize(t0, t1)
        tracer.install()
        try:
            t0 = time.perf_counter()
            work = CLASSES[name](zodom, seed, workdir)
            raw = work.run_pass()
            t1 = time.perf_counter()
        finally:
            tracer.uninstall()
        host.probe(3)
        traced_wall = host.normalize(t0, t1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, correct = tally([untraced, work.check(raw)])
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    tracer.write(str(OUT / f"trace-{name}"))
    print(f"{name}: {tracer.span_count()} spans written under {OUT}", file=sys.stderr)
    return correct, attempted, failed, metrics, 2


def result_line(correct, attempted, failed, metrics):
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


# ---------------------------------------------------------------------------
# all workloads, each in a fresh child process


def run_all(seed, seconds, trace):
    rows = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        # exit code 1 is a finished run whose outputs were wrong
        if proc.returncode not in (0, 1) or not lines:
            raise BenchError(f"workload {name} failed with exit code {proc.returncode}")
        rows[name] = json.loads(lines[-1])
    for name, res in rows.items():
        print(f"== {name}: attempted={res['attempted']} failed={res['failed']} correct={res['correct']}")
        for metric, mv in res["metrics"].items():
            print(f"   {metric:40s} {mv['value']:>14.6g} {mv['unit']}")
    print(json.dumps(rows))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="zodom benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.workload is None:
            return run_all(args.seed, args.seconds, args.trace)
        if args.setup_only:
            setup_child(args.workload, args.seed)
            return 0
        if args.trace:
            result = trace_workload(args.workload, args.seed)
        else:
            result = run_workload(args.workload, args.seed, args.seconds)
        correct, attempted, failed, metrics, npasses = result
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for metric, (value, unit) in metrics.items():
        print(f"{args.workload} {metric} = {value:.6g} {unit}")
    print(f"{args.workload} passes={npasses} attempted={attempted} failed={failed} correct={correct}")
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
