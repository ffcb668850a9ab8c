"""One benchmark sample: set up and measure one workload in this process.

``run.py`` starts a fresh process per sample, so no sample inherits the
allocator state, caches or code warmth of another.  The sample prints
one JSON object on its last stdout line::

    python3 perfbench/sample.py --workload serve --seed 1 --trace 0 \
        --work-dir .perfbench-work
"""

import argparse
import json
import resource
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from probe import Probe  # noqa: E402
from repro.errors import FTDLError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path, default=None)
    args = parser.parse_args(argv)

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    probe = Probe(run_id=run_id, trace=bool(args.trace))
    out: dict = {}
    with tempfile.TemporaryDirectory(dir=args.work_dir) as work:
        try:
            with probe.phase("sample", workload=args.workload):
                result = WORKLOADS[args.workload](args.seed, probe, Path(work))
        except FTDLError as error:
            probe.errors.append(f"{type(error).__name__}: {error}")
        else:
            out = {
                "setup_s": probe.setup_s,
                "calls": result.calls,
                "warm_starts": result.warm_starts,
                "schedule_cycles": result.schedule_cycles,
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "exact": result.exact,
                "timed": result.timed,
            }
            if probe.tracer is not None:
                out["spans"] = len(probe.tracer.spans)
                if args.trace_file is not None:
                    args.trace_file.write_text(
                        probe.chrome_json(f"perfbench {args.workload}")
                    )
    out.update(attempted=probe.attempted, failed=probe.failed,
               errors=probe.errors)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
