"""One measured run of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [SPANS_PATH]

Runs whole rounds of the workload's operations through `cli.main` until
SECONDS have passed, with the yardstick (yardstick.py) sampled all the
while, checks the outputs, and prints one JSON line of figures for run.py:
the times scaled to the reference machine, and the raw mean round time.  With TRACE = 1 the package's public functions are wrapped first and
the per-layer figures of one round are added; the spans go to SPANS_PATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

import workloads
from yardstick import Yardstick


def per_round(total: int | float, rounds: int) -> int | float:
    if isinstance(total, int) and total % rounds == 0:
        return total // rounds
    return total / rounds


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_operation(cli, argv: tuple[str, ...]) -> tuple[str, int | None, str | None]:
    """stdout, exit status (None when it raised) and the error it raised."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            status = cli.main(list(argv))
    except (Exception, SystemExit) as exc:  # every escape from cli.main is a failed operation
        return buf.getvalue(), None, traceback.format_exception_only(exc)[-1].strip()[:160]
    return buf.getvalue(), status, None


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    workload = workloads.WORKLOADS[name]
    from poisson_strata import cli

    ops = workload.operations(seed)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    yardstick = Yardstick()
    timings: list[list[tuple[float, float, float]]] = []  # per round, per operation: start, end, time
    rounds: list[list[tuple[str, int | None]]] = []
    errors: dict[str, int] = {}
    yardstick.start()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        results, times = [], []
        for op in ops:
            if tracer is not None:
                tracer.operation += 1
            spent, t0 = yardstick.spent, time.perf_counter()
            out, status, error = run_operation(cli, op.argv)
            t1 = time.perf_counter()
            times.append((t0, t1, t1 - t0 - (yardstick.spent - spent)))
            results.append((out, status))
            if error is not None:
                errors[error] = errors.get(error, 0) + 1
        timings.append(times)
        rounds.append(results)
    yardstick.stop()
    op_times = [[t * yardstick.scale(t0, t1) for t0, t1, t in times] for times in timings]
    round_times = [sum(times) for times in op_times]
    raw_round_mean = statistics.fmean(sum(t for _, _, t in times) for times in timings)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # an operation's latency is its mean over the rounds; a failed operation
    # counts as slower than every one that completed (it gets a round's time)
    round_mean = statistics.fmean(round_times)
    latencies = [
        statistics.fmean(column) if status in (0, 1) else round_mean
        for column, (_, status) in zip(zip(*op_times), rounds[0])
    ]
    failed = sum(1 for results in rounds for _, status in results if status not in (0, 1))
    done = [k for k, (_, status) in enumerate(rounds[0]) if status in (0, 1)]
    problems = workload.check(
        [ops[k] for k in done], [rounds[0][k][0] for k in done], [rounds[0][k][1] for k in done]
    )
    for r, results in enumerate(rounds[1:], start=2):
        if results != rounds[0]:
            problems.append(f"round {r} printed other output than round 1")
    for error, count in errors.items():
        print(f"[perfbench] {count} x {error}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"[perfbench] check failed: {problem}", file=sys.stderr)

    figures = {
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "rounds": len(rounds),
        "raw_wall_s": raw_round_mean,
        "wall_s": round_mean,
        "cmd_p50_ms": 1000 * statistics.median(latencies),
        "cmd_p90_ms": 1000 * p90(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        layers = dict(tracer.summary(), **{"bench.spans": len(tracer.spans)})
        # every round repeats the same calls; distinct parameter sets do not add up
        figures["layers"] = {
            key: value if key.endswith(".distinct_params") else per_round(value, len(rounds))
            for key, value in layers.items()
        }
        if len(argv) > 4:
            tracer.write_spans(argv[4])
    print(json.dumps(figures))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
