"""Guard: the library never reads the wall clock.

Every timestamp in the repo is virtual — the serving engine's event
clock, the compiler's monotonic step counter — so a seeded run (and its
trace) is a pure function of its inputs.  One ``time.time()`` or
``datetime.now()`` anywhere would leak real time into spans, metrics,
or schedules and break bit-reproducibility.  This mirrors
``test_no_global_rng.py``: scan ``src/repro`` line by line (comments
stripped), then double-check with an AST pass that catches aliased
imports the regex can't see.
"""

from __future__ import annotations

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"

#: Wall-clock reads: ``time.time/monotonic/perf_counter/...`` and
#: ``datetime.now/today/utcnow``.  ``time.sleep`` is banned too — the
#: virtual clock never blocks.
_WALL_CLOCK = re.compile(
    r"\btime\.(time|time_ns|monotonic|monotonic_ns|perf_counter"
    r"|perf_counter_ns|process_time|process_time_ns|sleep)\s*\("
    r"|\bdatetime\.(now|today|utcnow)\s*\("
)

#: Modules whose import alone signals wall-clock intent in this library.
_BANNED_IMPORTS = {"time", "datetime"}

#: Callable names that read the clock regardless of how they were
#: imported (``from time import time as _t`` style aliasing).
_BANNED_CALLS = {
    ("time", "time"), ("time", "time_ns"), ("time", "monotonic"),
    ("time", "monotonic_ns"), ("time", "perf_counter"),
    ("time", "perf_counter_ns"), ("time", "process_time"),
    ("time", "process_time_ns"), ("time", "sleep"),
    ("datetime", "now"), ("datetime", "today"), ("datetime", "utcnow"),
}


def _regex_violations() -> list[str]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("#", 1)[0]
            if _WALL_CLOCK.search(code):
                found.append(
                    f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
                )
    return found


def _ast_violations() -> list[str]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(SRC)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".", 1)[0]
                    if root in _BANNED_IMPORTS:
                        found.append(
                            f"{rel}:{node.lineno}: import {alias.name}"
                        )
            elif isinstance(node, ast.ImportFrom):
                module = (node.module or "").split(".", 1)[0]
                for alias in node.names:
                    if (module, alias.name) in _BANNED_CALLS:
                        found.append(
                            f"{rel}:{node.lineno}: from {node.module} "
                            f"import {alias.name}"
                        )
    return found


def test_no_wall_clock_reads():
    assert _regex_violations() == []


def test_no_wall_clock_imports():
    assert _ast_violations() == []


#: The compile fast path must stay on the virtual clock: persistence
#: replays recorded step charges instead of measuring anything.
_FAST_PATH_MODULES = (
    "compiler/persist.py",
    "compiler/cache.py",
    "sim/cycle.py",
)


def test_fast_path_modules_are_in_the_scanned_set():
    scanned = {
        str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
    }
    for module in _FAST_PATH_MODULES:
        assert module in scanned, f"{module} moved out of the scan root"


BENCH = pathlib.Path(__file__).parent.parent / "benchmarks"

#: The compile-speed harness is the one place allowed to read the wall
#: clock — measuring real speedups is its entire job.  Everything else
#: under benchmarks/ reproduces paper artifacts on the virtual clock.
_BENCH_WALL_CLOCK_ALLOWED = {"test_compile_speed.py"}


def test_benchmarks_stay_virtual_except_the_speed_harness():
    found = []
    for path in sorted(BENCH.rglob("*.py")):
        if path.name in _BENCH_WALL_CLOCK_ALLOWED:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("#", 1)[0]
            if _WALL_CLOCK.search(code):
                found.append(f"{path.name}:{lineno}: {line.strip()}")
    assert found == []


def test_tracer_requires_explicit_timestamps():
    """The tracing API has no implicit-now overloads at all."""
    import inspect

    from repro.trace.span import Tracer

    for method, stamp in (("begin", "at"), ("end", "at"),
                          ("event", "at"), ("instant", "at"),
                          ("add_span", "start")):
        params = inspect.signature(getattr(Tracer, method)).parameters
        assert stamp in params
        assert params[stamp].default is inspect.Parameter.empty
