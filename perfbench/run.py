"""The poisson-strata benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
src/).  Each invocation times the set-up of fresh interpreters, then runs
the workload in one fresh worker process for S seconds of whole rounds and
checks every output.  The worker's times are scaled to a reference machine
speed by the yardstick in yardstick.py.  The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced round
with --trace 1.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 15
TIME_LIMIT_S = 170.0


def _benchmark_spec() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def _child_env(root: str, seed: int) -> dict:
    env = dict(os.environ)
    env.pop("POISSON_STRATA_STEP_BUDGET", None)  # the default budget applies
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up is timed from cached bytecode
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONPYCACHEPREFIX"] = os.path.join(root, ".bench_build", "pycache")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def setup_seconds(env: dict, configs: list[str]) -> float:
    """Median over fresh interpreters of spawn-to-loaded time."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), *configs], stdout=subprocess.PIPE, env=env
        ) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = time.perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "poisson_strata", "__init__.py")):
        print("perfbench: run from the root of a poisson-strata checkout (no src/poisson_strata here)", file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    env = _child_env(root, args.seed)
    configs = [os.path.relpath(os.path.join(workloads.CONFIG_DIR, c)) for c in workloads.WORKLOADS[args.workload].configs]
    setup_s = setup_seconds(env, configs) if not args.trace else None

    worker = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(root, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        worker.append(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.tsv"))
    try:
        done = subprocess.run(
            worker, stdout=subprocess.PIPE, env=env, timeout=TIME_LIMIT_S - (time.perf_counter() - started)
        )
    except subprocess.TimeoutExpired:
        print("perfbench: the worker ran past the time limit", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"perfbench: the worker exited with status {done.returncode}", file=sys.stderr)
        return 1
    figures = json.loads(done.stdout.decode().strip().splitlines()[-1])

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        values = dict(figures["layers"], **{"bench.traced_wall_s": figures["wall_s"]})
        names = [m["name"] for m in spec["per_layer"]]
    else:
        values = dict(figures, setup_s=setup_s)
        names = [m["name"] for m in spec["end_to_end"]]
    print(
        f"[perfbench] {args.workload} seed {args.seed}: {figures['rounds']} round(s), "
        f"wall_s {figures['wall_s']:.3f} (raw {figures['raw_wall_s']:.3f})",
        file=sys.stderr,
    )
    result = {
        "correct": figures["correct"],
        "attempted": figures["attempted"],
        "failed": figures["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
