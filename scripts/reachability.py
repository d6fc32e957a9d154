"""Reachability probe: which functions under ``src/repro`` do the entry points run?

Runs a fixed list of entry points with cProfile switched on in every
Python process they start, then joins the code objects that ran with
every top-level function and method defined under ``src/repro``
(nested definitions count with their parent).  Prints the unreached
functions, and their lines, per package and per file.

    python scripts/reachability.py

The entry points are every command CI runs except its pytest runs
(the miss-heavy trace is cut to 1,048,576 accesses), the paper-band
tests under ``benchmarks/``, the examples, and every other CLI command
but ``all`` (which runs the figure commands listed here).  Profiling
reaches child processes through a ``sitecustomize.py`` written to a
temporary directory that heads ``PYTHONPATH``: fresh interpreters dump
at exit, and forked children (``multiprocessing.Pool`` workers) dump
when they leave through ``os._exit`` or on SIGTERM, since
``Pool.terminate`` skips ``atexit``.  Outputs go to the temporary
directory, apart from the host benchmark's work files in
``.bench_work/``.

Code behind an option no entry passes counts as unreached, so the
list is an upper bound on dead code.  The script exits nonzero unless
three functions known to run show as reached: a plain method, a
property, and a function that runs only in a forked pool worker.
Takes seven to eight minutes on a 2-vCPU host.
"""

from __future__ import annotations

import ast
import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from typing import Dict, List, NamedTuple, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: ``(label, argv)``; argv[0] is ``python`` for the interpreter running
#: this script.  Commands run in the temporary work directory.
REPRO = ["python", "-m", "repro"]
ENTRIES: List[Tuple[str, List[str]]] = [
    # CI: bench-smoke, host-bench-smoke, perf-gate.
    ("bench kcachesim", REPRO + ["bench", "--quick", "--min-speedup", "1.0",
                                 "--output", "bench-smoke.json"]),
    ("bench/run.py", ["python", os.path.join(ROOT, "bench", "run.py"),
                      "--quick", "--trace", "1", "--out", "host-bench.json"]),
    ("bench runtime", REPRO + ["bench", "--suite", "runtime", "--quick",
                               "--min-speedup", "1.0",
                               "--output", "runtime-bench.json"]),
    ("perfdiff", REPRO + ["perfdiff", "--trace-ops", "4000",
                          "--report", "perfdiff-report.json"]),
    # CI: streaming-smoke.
    ("trace-gen hot", REPRO + ["trace-gen", "--out", "hot4m.trace",
                               "--accesses", "4000000", "--region-mb", "192",
                               "--chunk", "1048576"]),
    ("trace-replay hot", REPRO + ["trace-replay", "--input", "hot4m.trace",
                                  "--chunk", "1048576",
                                  "--rss-ceiling-mb", "1024"]),
    ("trace-replay hot sharded", REPRO + [
        "trace-replay", "--input", "hot4m.trace", "--chunk", "1048576",
        "--shards", "2", "--processes", "2", "--rss-ceiling-mb", "1024"]),
    ("trace-replay hot 3 shards fleet", REPRO + [
        "trace-replay", "--input", "hot4m.trace", "--chunk", "1048576",
        "--shards", "3", "--processes", "2",
        "--fleet-out", "shard-fleet.json", "--rss-ceiling-mb", "1024"]),
    ("trace-gen miss", REPRO + ["trace-gen", "--out", "miss.trace",
                                "--accesses", "1048576", "--region-mb", "256",
                                "--hot-lines", "4096",
                                "--cold-fraction", "0.6",
                                "--chunk", "1048576"]),
    ("trace-replay miss", REPRO + ["trace-replay", "--input", "miss.trace",
                                   "--chunk", "1048576", "--engine", "batched",
                                   "--fmem-mb", "32",
                                   "--rss-ceiling-mb", "1024"]),
    ("trace-replay miss sharded", REPRO + [
        "trace-replay", "--input", "miss.trace", "--chunk", "1048576",
        "--engine", "batched", "--fmem-mb", "32", "--shards", "2",
        "--processes", "2", "--rss-ceiling-mb", "1024"]),
    ("trace-gen write", REPRO + ["trace-gen", "--out", "write128k.trace",
                                 "--accesses", "131072", "--region-mb", "256",
                                 "--hot-lines", "4096",
                                 "--cold-fraction", "0.6",
                                 "--write-fraction", "0.5"]),
    ("trace-replay write scalar", REPRO + [
        "trace-replay", "--input", "write128k.trace", "--fmem-mb", "32",
        "--engine", "scalar"]),
    ("trace-replay write batched", REPRO + [
        "trace-replay", "--input", "write128k.trace", "--fmem-mb", "32",
        "--engine", "batched"]),
    ("trace-gen hot 256k", REPRO + ["trace-gen", "--out", "hot256k.trace",
                                    "--accesses", "262144",
                                    "--region-mb", "64",
                                    "--hot-lines", "512",
                                    "--cold-fraction", "0.01"]),
    ("trace-replay hot 256k scalar", REPRO + [
        "trace-replay", "--input", "hot256k.trace", "--fmem-mb", "1",
        "--engine", "scalar"]),
    ("trace-replay hot 256k batched", REPRO + [
        "trace-replay", "--input", "hot256k.trace", "--fmem-mb", "1",
        "--engine", "batched"]),
    # CI: chaos-smoke, failover-smoke, obs-smoke.
    ("chaos", REPRO + ["chaos", "--seed", "0", "--ops", "12000"]),
    ("chaos failover traced", REPRO + [
        "chaos", "--campaign", "memnode-failover", "--seed", "0",
        "--ops", "8000", "--trace-out", "failover-trace.json"]),
    ("chaos traced fleet", REPRO + [
        "chaos", "--seed", "0", "--ops", "6000",
        "--trace-out", "chaos-trace.json", "--fleet-out", "chaos-fleet.json"]),
    ("chaos failover fleet", REPRO + [
        "chaos", "--campaign", "memnode-failover", "--seed", "0",
        "--ops", "12000", "--fleet-out", "fleet.json",
        "--tenant", "tenant-a"]),
    ("dashboard", REPRO + ["dashboard", "--from-artifact", "fleet.json",
                           "--html", "dashboard.html",
                           "--trace-out", "fleet-trace.json",
                           "--prom", "metrics.prom"]),
    ("obs.export", ["python", "-m", "repro.obs.export", "chaos-trace.json",
                    "fleet-trace.json"]),
    # CI: paper-bands, on a copy so its reports land in the work directory.
    ("paper bands", ["python", "-m", "pytest", "benchmarks",
                     "--benchmark-disable", "-q", "-p", "no:cacheprovider"]),
]
ENTRIES += [(f"example {os.path.basename(path)}", ["python", path])
            for path in sorted(glob.glob(os.path.join(ROOT, "examples",
                                                      "*.py")))]
ENTRIES += [(command, REPRO + [command])
            for command in ("summary", "table2", "fig7", "fig8", "fig8d",
                            "fig9", "fig10", "fig11a", "fig11b", "fig11c",
                            "sections", "list")]
ENTRIES += [
    ("sweep", REPRO + ["sweep", "--processes", "2"]),
    ("trace-convert to npz", REPRO + ["trace-convert", "--input",
                                      "write128k.trace", "--to", "npz",
                                      "--out", "write128k.npz"]),
    ("trace-convert to columnar", REPRO + [
        "trace-convert", "--input", "write128k.npz", "--to", "columnar",
        "--out", "write128k-back.trace"]),
]

#: ``(file under src/repro, qualified name)`` that must show as reached:
#: a plain method, a property, and a function that runs only in a
#: forked pool worker.
SELF_CHECK = [
    ("kona/runtime.py", "KonaRuntime.run_trace"),
    ("workloads/trace.py", "Trace.addrs"),
    ("experiments/sweep.py", "_run_point"),
]

SITECUSTOMIZE = '''\
"""Written by scripts/reachability.py: record the code objects that run."""
import atexit, cProfile, json, os, signal, tempfile, _lsprof

_PACKAGE = {package!r}
_DUMPS = {dumps!r}
_reached = set()
_real = {{}}
_profiler = _lsprof.Profiler()
_dumped = False
_exit = os._exit


def _harvest(profiler):
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            continue
        name = code.co_filename
        path = _real.get(name)
        if path is None:
            path = _real[name] = os.path.realpath(name)
        if path.startswith(_PACKAGE):
            _reached.add((path, code.co_firstlineno))


def _dump():
    global _dumped
    if _dumped:
        return
    _dumped = True
    _profiler.disable()
    _harvest(_profiler)
    fd, path = tempfile.mkstemp(dir=_DUMPS, suffix=".json")
    with os.fdopen(fd, "w") as fh:
        json.dump(sorted(_reached), fh)


# Another cProfile (bench/child.py's traced round) takes the profile
# hook while it runs: hand it over and harvest its stats after.
_enable, _disable = cProfile.Profile.enable, cProfile.Profile.disable


def _their_enable(self, *args, **kwargs):
    _profiler.disable()
    _enable(self, *args, **kwargs)


def _their_disable(self):
    _disable(self)
    _harvest(self)
    _profiler.enable()


cProfile.Profile.enable = _their_enable
cProfile.Profile.disable = _their_disable


def _on_term(signum, frame):
    # A pool worker that got its sentinel may already be dumping on its
    # way out when Pool.terminate signals it: let that dump finish.
    if not _dumped:
        _dump()
        _exit(128 + signum)


def _exit_after_dump(code):
    _dump()
    _exit(code)


def _in_child():
    # A forked child leaves through os._exit (multiprocessing) or is
    # killed by SIGTERM (Pool.terminate): atexit runs for neither.
    global _dumped
    _dumped = False
    os._exit = _exit_after_dump
    signal.signal(signal.SIGTERM, _on_term)


os.register_at_fork(after_in_child=_in_child)
atexit.register(_dump)
_profiler.enable()
'''


class Function(NamedTuple):
    """One top-level function or method under ``src/repro``."""

    path: str        # relative to src/repro
    qualname: str
    first: int       # first decorator line, as cProfile keys it
    last: int

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def _defs(body: List[ast.stmt], prefix: str):
    """Functions and methods in a module or class body, not nested ones."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for block in ("body", "orelse", "finalbody"):
                yield from _defs(getattr(node, block, []), prefix)
            for handler in getattr(node, "handlers", []):
                yield from _defs(handler.body, prefix)


def functions() -> Tuple[List[Function], Dict[str, int]]:
    """Every top-level function and method, and each file's line count."""
    found: List[Function] = []
    sizes: Dict[str, int] = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                                 recursive=True)):
        rel = os.path.relpath(path, PACKAGE)
        with open(path) as fh:
            text = fh.read()
        sizes[rel] = len(text.splitlines())
        for qualname, node in _defs(ast.parse(text).body, ""):
            # cProfile keys a decorated function by its first decorator.
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            found.append(Function(rel, qualname, first, node.end_lineno))
    return found, sizes


def run_entries(tmp: str) -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Run every entry under the profiler; the code keys that ran."""
    site, dumps, work = (os.path.join(tmp, d)
                         for d in ("site", "dumps", "work"))
    for d in (site, dumps, work):
        os.makedirs(d)
    with open(os.path.join(site, "sitecustomize.py"), "w") as fh:
        fh.write(SITECUSTOMIZE.format(
            package=os.path.realpath(PACKAGE) + os.sep,
            dumps=dumps))
    shutil.copytree(os.path.join(ROOT, "benchmarks"),
                    os.path.join(work, "benchmarks"),
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([site, SRC]))
    failed: List[str] = []
    for label, argv in ENTRIES:
        start = time.perf_counter()
        with open(os.path.join(tmp, "log.txt"), "a") as log:
            log.write(f"\n=== {label}: {' '.join(argv)}\n")
            log.flush()
            code = subprocess.call([sys.executable] + argv[1:], cwd=work,
                                   env=env, stdout=log,
                                   stderr=subprocess.STDOUT)
        print(f"  {label:<30} exit {code}  "
              f"{time.perf_counter() - start:6.1f} s", file=sys.stderr,
              flush=True)
        if code != 0:
            failed.append(label)
    reached: Set[Tuple[str, int]] = set()
    for path in glob.glob(os.path.join(dumps, "*.json")):
        with open(path) as fh:
            reached.update((os.path.relpath(p, os.path.realpath(PACKAGE)),
                            line) for p, line in json.load(fh))
    return reached, failed


def report(funcs: List[Function], sizes: Dict[str, int],
           reached: Set[Tuple[str, int]]) -> List[Function]:
    """Print the per-package and per-file tables; the unreached list."""
    unreached = [f for f in funcs if (f.path, f.first) not in reached]

    def package(rel: str) -> str:
        return rel.split(os.sep)[0] if os.sep in rel else "(top level)"

    def table(title: str, key, every_row: bool) -> None:
        rows: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0, 0])
        for rel, size in sizes.items():
            rows[key(rel)][3] += size
        for f in funcs:
            rows[key(f.path)][0] += 1
        for f in unreached:
            rows[key(f.path)][1] += 1
            rows[key(f.path)][2] += f.lines
        print(f"\n{title:<34} {'funcs':>6} {'unreached':>9} "
              f"{'lines':>6} {'of':>6}")
        for name, (n, u, lines, size) in sorted(rows.items()):
            if u or every_row:
                print(f"{name:<34} {n:>6} {u:>9} {lines:>6} {size:>6}")

    table("package", package, every_row=True)
    table("file (with unreached code)", lambda rel: rel, every_row=False)
    print("\nunreached functions (file: first line, lines, name)")
    for f in sorted(unreached, key=lambda f: (f.path, f.first)):
        print(f"  {f.path}:{f.first}  {f.lines:>4}  {f.qualname}")
    print(f"\ntotal: {len(funcs)} functions, {len(unreached)} unreached, "
          f"{sum(f.lines for f in unreached)} of {sum(sizes.values())} "
          f"lines under src/repro")
    return unreached


def main() -> int:
    funcs, sizes = functions()
    print(f"running {len(ENTRIES)} entry points under cProfile",
          file=sys.stderr)
    tmp = tempfile.mkdtemp(prefix="reachability-")
    try:
        reached, failed = run_entries(tmp)
        if failed:
            with open(os.path.join(tmp, "log.txt")) as fh:
                tail = fh.read()[-4000:]
            print(f"entries that exited nonzero: {', '.join(failed)}\n"
                  f"(end of their log)\n{tail}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    unreached = report(funcs, sizes, reached)
    names = {(f.path, f.qualname) for f in unreached}
    known = {(f.path, f.qualname) for f in funcs}
    bad = [f"{path} {name}" for path, name in SELF_CHECK
           if (path, name) in names or (path, name) not in known]
    if bad:
        print(f"SELF-CHECK FAILED, not seen as reached: {'; '.join(bad)}")
        return 1
    print("self-check passed: "
          + ", ".join(name for _, name in SELF_CHECK) + " reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
