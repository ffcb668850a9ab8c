"""Benchmark entry point: run one workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

``--trace 0`` starts fresh sample processes (``sample.py``) one after
another for as long as the next one is expected to end within
``--seconds``, and reports each end-to-end metric in ``BENCHMARK.json``
as a median over the samples' repeats (README.md).  ``--trace 1``
runs one untraced and one traced sample, reports every per-layer metric
from the traced one, writes its spans to
``perfbench/out/<workload>-seed<seed>.trace.json`` (Chrome trace format)
and reports the tracing overhead.  Metrics a workload does not reach
read 0.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run is correct when
every sample's outputs passed their checks and every sample of the run
produced the same exact (count and virtual-clock) outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compile", "simulate", "serve", "cluster")

#: Host seconds after which a run kills its sample and fails.
RUN_TIMEOUT_S = 170


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _sample_env() -> dict[str, str]:
    """The child environment: program on the path, BLAS threads capped."""
    env = dict(os.environ)
    threads = str(_nproc())
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def _sample(workload: str, seed: int, trace: bool, work: Path,
            trace_file: Path | None, deadline: float) -> dict:
    command = [
        sys.executable, str(HERE / "sample.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(trace)),
        "--work-dir", str(work),
    ]
    if trace_file is not None:
        command += ["--trace-file", str(trace_file)]
    done = subprocess.run(
        command, cwd=ROOT, env=_sample_env(), capture_output=True,
        text=True, timeout=max(1.0, deadline - time.perf_counter()),
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"sample exited with {done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _correct(samples: list[dict]) -> bool:
    """All checks passed and the exact outputs agree across samples."""
    if any(s["errors"] or "exact" not in s for s in samples):
        return False
    first = samples[0]
    return all(
        s["exact"] == first["exact"]
        and s["schedule_cycles"] == first["schedule_cycles"]
        for s in samples
    )


def _run_s(samples: list[dict]) -> float:
    """Σ over the timed calls of each call's median repeat."""
    calls: dict[str, list[float]] = {}
    for sample in samples:
        for name, times in sample["calls"].items():
            calls.setdefault(name, []).extend(times)
    return sum(statistics.median(times) for times in calls.values())


def _end_to_end(samples: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of a run: medians over repeats and samples."""
    return {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "run_s": _run_s(samples),
        "warm_start_ms": 1e3 * statistics.median(
            t for s in samples for t in s["warm_starts"]
        ),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "schedule_cycles": samples[0]["schedule_cycles"],
    }


def _declared(values: dict[str, float], declared: list[dict]) -> dict:
    """Every declared metric with its unit; 0 where ``values`` lacks it."""
    names = {m["name"] for m in declared}
    unknown = sorted(set(values) - names)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in declared
    }


def _per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    return {
        **traced["exact"],
        **traced["timed"],
        "trace.overhead_s": _run_s([traced]) - _run_s([untraced]),
        "trace.spans": traced["spans"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    program = ROOT / "src" / "repro" / "__init__.py"
    if not program.is_file():
        print(f"error: the program's source ({program}) is missing",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    import numpy  # after the check: the program's own dependency

    print(f"# {args.workload} seed={args.seed} nproc={_nproc()} "
          f"python={platform.python_version()} numpy={numpy.__version__}")
    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    start = time.perf_counter()
    deadline = start + RUN_TIMEOUT_S
    try:
        if args.trace:
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            trace_file = out / f"{args.workload}-seed{args.seed}.trace.json"
            untraced = _sample(args.workload, args.seed, False, work, None,
                               deadline)
            traced = _sample(args.workload, args.seed, True, work,
                             trace_file, deadline)
            samples = [untraced, traced]
            correct = _correct(samples)
            values = _per_layer(untraced, traced) if correct else {}
            declared = bench["per_layer"]
        else:
            samples = []
            # Stop before a sample that would overrun --seconds.
            while not samples or (time.perf_counter() - start) * (
                1 + 1 / len(samples)
            ) <= args.seconds:
                samples.append(
                    _sample(args.workload, args.seed, False, work, None,
                            deadline)
                )
            correct = _correct(samples)
            values = _end_to_end(samples) if correct else {}
            declared = bench["end_to_end"]
        metrics = _declared(values, declared) if values else {}
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for i, sample in enumerate(samples):
        for error in sample["errors"]:
            print(f"# check failed: {error}")
        if "calls" in sample:
            print(f"# sample {i}: " + " ".join(
                f"{name}={value:.6g}"
                for name, value in _end_to_end([sample]).items()
            ))
    print(f"# samples={len(samples)}")
    for name, metric in metrics.items():
        print(f"{name:>48s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
