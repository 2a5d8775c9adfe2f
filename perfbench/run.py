"""Seeded end-to-end and per-layer benchmark for crtkit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hard-cr --seed 1 --seconds 25 --trace 0

It builds the workload's inputs from the seed (timed as set-up, at least
five times), then repeats one pass over them while the time lasts, checking
every output against an independent oracle. The load is a closed loop with
one client: one CLI child at a time, or for `classify` one call at a time in
a child that runs the whole timed loop (`classify_loop.py`).
With --trace 0 it reports the end-to-end metrics; with --trace 1 it wraps
crtkit's public functions and reports the per-layer metrics instead. The
last line of stdout is the JSON result; the line before it holds details.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# set-up repeats at least SETUP_MIN_REPEATS times and until SETUP_MIN_S have
# passed, builds and reference jobs together, so that a set-up of a few
# milliseconds still gives a steady median
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 400
SETUP_MIN_S = 3.0
# reference jobs timed before each build, and after the last
SETUP_REFS = 2


class SpeedMeter:
    """How fast the machine runs right now, from a fixed reference job.

    On a shared host the same computation takes from 0.6 to 1.1 times its
    usual time, in phases that last seconds to minutes, so raw times of two
    runs differ by up to a quarter. Between operations, at most every
    `interval` seconds, the meter times a reference job that resembles the
    work but runs no crtkit code. Its `kind` is one of:

    - "cli": a child Python that imports numpy and runs LOOP; it pays
      process start, imports and interpretation as a command does;
    - "python": LOOP in process;
    - "numpy": NUMPY_LOOP in process, byte-array work like the closures of
      `postlattice.classify` and of the classify oracle. LOOP does not
      track such work: the swings slow interpretation more than array
      arithmetic.

    scale() turns a wall time into seconds at the job's nominal time, from
    the samples on either side of it. Raw times are reported too.
    """

    LOOP = (
        "def loop():\n"
        "    acc, table = 0, [0] * 256\n"
        "    for i in range(120_000):\n"
        "        acc = (acc * 31 + i) & ((1 << 400) - 1)\n"
        "        table[i & 255] = acc\n"
        "loop()\n"
    )
    NUMPY_LOOP = (
        "import numpy as np\n"
        "a = np.arange(65536, dtype=np.uint8).reshape(256, 256)\n"
        "for i in range(200):\n"
        "    b = (~a & (a >> 1)) | (a ^ np.uint8(i))\n"
        "    np.flatnonzero(np.bincount(b.ravel(), minlength=256))\n"
    )
    # nominal time of one job, and the least time between samples
    KINDS = {"cli": (0.25, 2.0), "python": (0.03, 0.3), "numpy": (0.03, 0.3)}

    def __init__(self, kind: str):
        self.kind = kind
        self.nominal, self.interval = self.KINDS[kind]
        self.code = compile(self.NUMPY_LOOP if kind == "numpy" else self.LOOP, "<reference>", "exec")
        self.mids: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        if self.kind == "cli":
            subprocess.run([sys.executable, "-c", "import numpy\n" + self.LOOP], check=True, timeout=60,
                           stdout=subprocess.DEVNULL,
                           env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
        else:
            exec(self.code, {})
        end = time.perf_counter()
        self.mids.append((start + end) / 2)
        self.durations.append(end - start)

    def maybe_sample(self) -> None:
        if not self.mids or time.perf_counter() - self.mids[-1] >= self.interval:
            self.sample()

    def scale(self, start: float, end: float, wall: float) -> float:
        """wall, measured from start to end, in seconds at nominal speed."""
        before = max(bisect.bisect_right(self.mids, start) - 1, 0)
        after = min(bisect.bisect_left(self.mids, end), len(self.mids) - 1)
        return wall * self.nominal / ((self.durations[before] + self.durations[after]) / 2)


def _environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "crtkit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    rev = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="ascii") as handle:
            rev = handle.read().strip()
        if rev.startswith("ref: "):
            ref = os.path.join(ROOT, ".git", rev[5:])
            if os.path.isfile(ref):
                with open(ref, encoding="ascii") as handle:
                    rev = handle.read().strip()
    return {
        "git_rev": rev,
        "source_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


def _setup(workload: str, seed: int, base: str, meter: SpeedMeter):
    """Build the inputs and their oracle answers several times; keep the last
    build. Returns it with the raw build times and the scaled median.

    The machine's speed swings by a fifth within seconds, and a build takes
    from milliseconds to seconds, so the two samples beside one build track
    it poorly. Reference jobs are instead interleaved with the builds,
    SETUP_REFS before each, and the median build time is scaled by the
    median job time over the same stretch.
    """
    import workloads

    raw, built, workdir = [], None, None
    start_all = time.perf_counter()
    for rep in range(SETUP_MAX_REPEATS):
        if rep >= SETUP_MIN_REPEATS and time.perf_counter() - start_all >= SETUP_MIN_S:
            break
        if workdir is not None:
            shutil.rmtree(workdir)
        workdir = os.path.join(base, f"setup{rep}")
        os.makedirs(workdir)
        for _ in range(SETUP_REFS):
            meter.sample()
        start = time.perf_counter()
        built = workloads.PASS_OF[workload](seed, workdir)
        raw.append(time.perf_counter() - start)
    for _ in range(SETUP_REFS):
        meter.sample()
    return built, workdir, raw, statistics.median(raw) * meter.nominal / statistics.median(meter.durations)


@dataclasses.dataclass
class Ledger:
    """Every operation of one run: kind, pass, start, wall time and outcome."""

    ops: list = dataclasses.field(default_factory=list)  # (kind, pass, start, wall)
    passes: int = 0
    failed: int = 0
    wrong: int = 0
    failures: list = dataclasses.field(default_factory=list)
    problems: list = dataclasses.field(default_factory=list)
    peak_rss_kb: int = 0

    def add(self, kind: str, start: float, wall: float, failure: str = "", problems=()):
        self.ops.append((kind, self.passes, start, wall))
        if failure:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(failure)
        elif problems:
            self.wrong += 1
            self.problems.extend(problems[: max(0, 5 - len(self.problems))])

    def pass_wall(self) -> float:
        return sum(wall for _, p, _, wall in self.ops if p == self.passes - 1)


def timed_loop(seconds: float, ledger: Ledger, one_pass) -> list[float]:
    """Repeat one_pass() while a typical pass still fits in `seconds`, at
    least once; return the raw wall time of each pass."""
    start = time.perf_counter()
    pass_raw: list[float] = []
    while not pass_raw or time.perf_counter() - start + statistics.median(pass_raw) <= seconds:
        one_pass()
        pass_raw.append(ledger.pass_wall())
    return pass_raw


def _cli_pass(built, workdir, env, ledger: Ledger, meter: SpeedMeter, tracer=None, stats=None):
    from cliops import run_cli

    if tracer is not None:
        from crtkit import cli
    for op in built.ops:
        meter.maybe_sample()
        start = time.perf_counter()
        rec = run_cli(op.kind, op.args, env, workdir)
        ledger.peak_rss_kb = max(ledger.peak_rss_kb, rec.maxrss_kb)
        problems = [] if rec.failure else op.check(rec.stdout, rec.exit_code)
        if tracer is not None:
            # replay the same command in process, through the wrapped functions
            before = tracer.root_time()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op.args)
            stats["cli.unaccounted_s"] += rec.wall_s - (tracer.root_time() - before)
            if not rec.failure and (code != rec.exit_code or out.getvalue() != rec.stdout):
                problems = list(problems) + [f"{op.kind}: in-process replay printed other output"]
        ledger.add(op.kind, start, rec.wall_s, rec.failure, problems)
    ledger.passes += 1


def classify_pass(signatures, ledger: Ledger, meter: SpeedMeter):
    """One operation per signature: classify it without the witness and,
    for every fourth, once more with the witness."""
    import workloads
    from crtkit import postlattice

    for sig in signatures:
        meter.maybe_sample()
        calls = (False, True) if sig.with_witness else (False,)
        kind = f"{'tag+witness' if sig.with_witness else 'tag'} {sig.tag}"
        results, failure = [], ""
        start = time.perf_counter()
        try:
            for with_witness in calls:
                results.append(postlattice.classify(sig.algebra, with_witness=with_witness))
        except Exception as exc:  # a classifier error is a failed operation
            failure = f"exception: {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        problems = [p for w, r in zip(calls, results) for p in workloads.classify_problems(sig, w, r)]
        ledger.add(kind, start, wall, failure, problems)
    ledger.passes += 1


def _classify_in_child(signatures, workdir: str, env: dict, seconds: float, trace: bool) -> dict:
    """Run classify's timed loop in `classify_loop.py`; return what it reports."""
    job, result = os.path.join(workdir, "classify.job"), os.path.join(workdir, "classify.json")
    with open(job, "wb") as handle:
        pickle.dump({"signatures": signatures, "seconds": seconds, "trace": trace}, handle)
    subprocess.run([sys.executable, os.path.join(HERE, "classify_loop.py"), job, result], env=env,
                   cwd=workdir, check=True, timeout=2 * seconds + 60)
    with open(result, encoding="utf-8") as handle:
        return json.load(handle)


def _startup_s(env, workdir) -> float:
    from cliops import run_cli

    return statistics.median(run_cli("help", ["--help"], env, workdir).wall_s for _ in range(3))


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "formats.parse_bytes":
        return "bytes"
    if name == "systems.brute_rate":
        return "1/s"
    return "count"


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from cliops import child_env

    base = os.path.join(ROOT, ".perfbench_work", f"{workload}-s{seed}-p{os.getpid()}")
    os.makedirs(base)
    # set-up runs in process; classify's operations run in process in a
    # child (classify_loop.py). Its set-up and operations both spend most of
    # their time in array closures.
    setup_meter = SpeedMeter("numpy" if workload == "classify" else "python")
    meter = SpeedMeter("numpy" if workload == "classify" else "cli")
    ledger = Ledger()
    layer, stats = None, {"cli.unaccounted_s": 0.0}
    try:
        env = child_env(ROOT)
        built, workdir, setup_raw, setup_scaled = _setup(workload, seed, base, setup_meter)
        if trace:
            stats["cli.startup_s"] = _startup_s(env, workdir)
        if workload == "classify":
            out = _classify_in_child(built.signatures, workdir, env, seconds, trace)
            ledger = Ledger(**out["ledger"])
            pass_raw, meter.mids, meter.durations = out["pass_raw"], out["mids"], out["durations"]
            layer, spans = out["layers"], out["spans"]
        else:
            tracer = None
            if trace:
                from tracing import Tracer

                tracer = Tracer()
                tracer.install()
            try:
                pass_raw = timed_loop(seconds, ledger,
                                      lambda: _cli_pass(built, workdir, env, ledger, meter, tracer, stats))
                meter.sample()
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if tracer is not None:
                layer, spans = tracer.metrics(), len(tracer.spans)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(base))

    attempted = len(ledger.ops)
    raw = sorted(wall for _, _, _, wall in ledger.ops)
    scaled = [meter.scale(s, s + wall, wall) for _, _, s, wall in ledger.ops]
    pass_scaled = [0.0] * ledger.passes
    kinds: dict[str, list] = {}
    for (kind, p, _, _), value in zip(ledger.ops, scaled):
        pass_scaled[p] += value
        kinds.setdefault(kind, []).append(value)
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": ledger.passes,
        "ops_per_pass": attempted // ledger.passes,
        "expected_per_pass": built.expected,
        "fail_share": ledger.failed / attempted,
        "wrong": ledger.wrong,
        "failures": ledger.failures,
        "problems": ledger.problems,
        "op_kind_p50_s": {k: round(statistics.median(v), 4) for k, v in sorted(kinds.items())},
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "wall_s": statistics.median(pass_raw),
            "op_p50_s": statistics.median(raw),
        },
        "speed": {
            "reference_p50_s": statistics.median(meter.durations),
            "reference_samples": len(meter.durations),
            "setup_reference_p50_s": statistics.median(setup_meter.durations),
            "setup_builds": len(setup_raw),
        },
        "environment": _environment(),
    }
    if attempted >= 100:
        # the highest percentile with at least ten samples beyond it
        detail["op_p90_s"] = statistics.quantiles(scaled, n=10)[-1]
    if trace:
        layer.update(stats)
        # per pass, so that counts repeat exactly for a seed
        metrics = {name: {"value": v / (1 if name in ("cli.startup_s", "systems.brute_rate") else ledger.passes),
                          "unit": _unit(name)}
                   for name, v in layer.items()}
        timed = {k: v for k, v in layer.items() if k.endswith("_s") and k != "cli.startup_s" and v > 0}
        total = sum(timed.values())
        detail["layer_share"] = {k: round(v / total, 4) for k, v in sorted(timed.items(), key=lambda kv: -kv[1])}
        detail["spans"] = spans
    else:
        metrics = {
            "setup_s": {"value": setup_scaled, "unit": "s"},
            "wall_s": {"value": statistics.median(pass_scaled), "unit": "s"},
            "ops_per_s": {"value": (attempted - ledger.failed) / sum(scaled), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(scaled), "unit": "s"},
            "peak_rss_mb": {"value": ledger.peak_rss_kb / 1024, "unit": "MB"},
        }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": ledger.wrong == 0,
        "attempted": attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "crtkit", "__init__.py")):
        print(f"error: no crtkit sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
