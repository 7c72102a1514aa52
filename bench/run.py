"""Benchmark of the affgebroid command line, driven in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is one call of affgebroid.cli.main(argv) in this process,
one thread, closed loop.  A run repeats whole rounds of the workload's
operations for about S seconds, checks the outputs of the first round and
that later rounds reproduce them byte for byte, and prints one JSON line:
the end-to-end metrics (median over rounds) with --trace 0, the per-layer
metrics with --trace 1.  See bench/README.md.
"""

import os
import sys

PINNED = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
          "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED.items()):
    os.execve(sys.executable, [sys.executable] + sys.argv, {**os.environ, **PINNED})

import time  # noqa: E402

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "simulate_states_per_s": "states/s",
    "check_s": "s",
    "validate_points_per_s": "points/s",
    "legendre_points_per_s": "points/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Result:
    rc: object
    out: str
    err: str
    seconds: float


def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as e:  # counted as a failed operation, reported below
            rc = "%s: %s" % (type(e).__name__, e)
        seconds = time.perf_counter() - start
    return Result(rc, out.getvalue(), err.getvalue(), seconds)


def fingerprint(op, res):
    digest = hashlib.sha256(("%s\n%s\n%s" % (res.rc, res.out, res.err)).encode())
    if op.out and res.rc == 0:
        digest.update(Path(op.out).read_bytes())
    return digest.hexdigest()


def round_metrics(ops, results):
    """Each end-to-end rate of one round.  Failed simulates count their time
    and no rows, so a later fix that makes one succeed stays comparable."""
    time_of = {"simulate": 0.0, "check": 0.0, "validate": 0.0, "legendre": 0.0}
    work = {"simulate": 0, "validate": 0, "legendre": 0}
    for op in ops:
        res = results[op.name]
        if op.kind not in time_of:
            continue
        time_of[op.kind] += res.seconds
        if res.rc != op.expect:
            continue
        if op.kind == "simulate":
            work["simulate"] += int(res.out.split("wrote ")[1].split(" rows")[0])
        elif op.kind in work:
            work[op.kind] += op.work
    return {
        "simulate_states_per_s": work["simulate"] / time_of["simulate"],
        "check_s": time_of["check"],
        "validate_points_per_s": work["validate"] / time_of["validate"],
        "legendre_points_per_s": work["legendre"] / time_of["legendre"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import affgebroid.cli as cli
    except ImportError as e:
        print("cannot import affgebroid from %s: %s" % (SRC, e), file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print("affgebroid was imported from %s, not %s" % (cli.__file__, SRC), file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0

    import workloads
    from layers import Tracer

    if args.workload not in workloads.WORKLOADS:
        print("unknown workload %r (have %s)" % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    work = OUT / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(cli, workloads, Tracer, args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(cli, workloads, Tracer, args, work, import_s):
    configs, ops = workloads.build(args.workload, args.seed, work)
    start = time.perf_counter()
    for path in configs:
        cli.load_config(path)
    setup_s = import_s + time.perf_counter() - start

    reference = {}

    def unscaled_reference():
        # only needed once the scaled rigid body stops failing
        if "csv" not in reference:
            out = str(work / "rigid_body_unscaled.csv")
            call(cli, ["simulate", str(work / "rigid_body_unscaled.json"),
                       "--mode", "lagrangian", "--out", out])
            reference["csv"] = workloads.read_csv(out)
        return reference["csv"]

    tracer = Tracer() if args.trace else None
    rounds = []
    walls = []
    problems = []
    first = None
    op_seconds = {op.name: [] for op in ops}
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        if tracer is not None and len(rounds) == 1:
            tracer.install()
        index = len(rounds)
        results = {}
        wall = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op = "%d:%s" % (index, op.name)
            results[op.name] = call(cli, op.argv)
            op_seconds[op.name].append(results[op.name].seconds)
        walls.append(time.perf_counter() - wall)
        attempted += len(ops)
        failed += sum(results[op.name].rc != op.expect for op in ops)
        prints = {op.name: fingerprint(op, results[op.name]) for op in ops}
        if first is None:
            first = prints
            problems += workloads.verify(ops, results, unscaled_reference)
        else:
            problems += ["%s: round %d output differs from round 0" % (nm, index)
                         for nm in prints if prints[nm] != first[nm]]
        rounds.append(round_metrics(ops, results))
        elapsed = time.perf_counter() - begin
        if tracer is not None and len(rounds) < 2:
            continue
        if elapsed + walls[-1] > args.seconds:
            break

    for op in ops:
        if results[op.name].rc != op.expect:
            print("failed: %s exit %s: %s" % (op.name, results[op.name].rc,
                                              results[op.name].err.strip()), file=sys.stderr)
    for p in problems:
        print("incorrect: " + p, file=sys.stderr)

    if tracer is None:
        values = {nm: statistics.median(r[nm] for r in rounds) for nm in rounds[0]}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {nm: {"value": values[nm], "unit": unit} for nm, unit in END_TO_END.items()}
    else:
        traced = len(rounds) - 1
        layer = tracer.metrics(traced)
        layer["trace.overhead_ratio"] = (statistics.mean(walls[1:]) / walls[0], "ratio")
        metrics = {nm: {"value": v, "unit": u} for nm, (v, u) in layer.items()}
        tracer.write(OUT / ("trace-%s-seed%d.csv" % (args.workload, args.seed)))

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  round_wall_s=walls, round_metrics=rounds, op_seconds=op_seconds,
                  problems=problems)
    (OUT / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
