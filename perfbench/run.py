"""Cold-process benchmark of the esdkit command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a fresh interpreter (child.py) that imports esdkit.cli,
calls esdkit.cli.main(argv) once on inputs made from the seed, and exits:
what a shell user pays per call.  One closed-loop client runs repetitions
back to back for S seconds after an untimed warm-up import; BLAS is pinned
to one thread.  Every repetition's exit code, stderr and output files are checked.

--trace 0 reports the end-to-end metrics: run_s (main after import),
setup_s (import esdkit.cli), wall_s (spawn to exit) and peak_rss_mb (the
child's peak resident set, from wait4), each the median over repetitions.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of perfbench/layertrace.py, import times from -X importtime,
and trace.overhead_s (traced minus untraced median run_s).

Human-readable lines come first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Full results, raw samples and
the environment go to perfbench/out/results/, spans to perfbench/out/spans/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from layertrace import CALL_COUNTERS, LAYERS, RESULT_COUNTERS, SPAN_TIMERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
CHILD = BENCH_DIR / "child.py"

BLAS_THREADS = 1
MIN_REPS = 2  # timed repetitions of each kind, even past --seconds
RUN_LIMIT_S = 150.0  # no repetition starts after this, whatever --seconds says
IMPORT_GROUPS = ("numpy", "scipy", "esdkit")

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    for name in [*CALL_COUNTERS, *(m for m, _ in RESULT_COUNTERS.values())]:
        units[name] = "count"
    for name in SPAN_TIMERS:
        units[name] = "s"
    units["cli.self_s"] = "s"
    units["cli.output_bytes"] = "B"
    for group in IMPORT_GROUPS:
        units[f"import.{group}_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # A user's installed package has its bytecode compiled; keep that true here.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPATH", None)
    return env


def import_times(stderr: str) -> dict[str, float]:
    """Import seconds per package group from -X importtime output.

    Each module's self time goes to the nearest enclosing module (itself
    included) that belongs to numpy, scipy or esdkit, so numpy imported from
    inside scipy still counts as numpy, and the stdlib modules a package pulls
    in count towards that package.  Lines after the child's marker (imports
    during main) are ignored.
    """
    entries = []  # (depth, name, self_us) in the post-order importtime prints
    for line in stderr.splitlines():
        if line.startswith("perfbench: import done"):
            break
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():
            continue  # the column header
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2  # "| name", "|   name", ...
        entries.append((depth, name.strip(), int(fields[0])))
    totals = dict.fromkeys(IMPORT_GROUPS, 0.0)
    # Walk in reverse, which visits parents before their children.
    owners: list[str | None] = []  # owner group per depth on the current path
    for depth, name, self_us in reversed(entries):
        del owners[depth:]
        inherited = owners[-1] if owners else None
        top = name.split(".")[0]
        owner = top if top in totals else inherited
        owners.append(owner)
        if owner is not None:
            totals[owner] += self_us * 1e-6
    return totals


def run_rep(wl: workloads.Workload, workdir: Path, rep: int, traced: bool,
            spans_path: Path, timeout: float) -> dict:
    """One fresh-process repetition; returns its samples and its verdict."""
    for name in wl.outputs:
        (workdir / name).unlink(missing_ok=True)
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []), str(CHILD), str(SRC),
           str(result_path), str(int(traced)), str(rep), str(spans_path), *wl.argv]
    with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, stdout=out, stderr=err, env=child_env())
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (workdir / "stderr.txt").read_text(errors="replace")
    rec = {"rep": rep, "traced": traced, "code": proc.returncode, "wall_s": wall_s,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "problems": []}
    if proc.returncode != 0:
        rec["problems"].append(f"exit code {proc.returncode}")
    if "Traceback" in stderr:
        rec["problems"].append("traceback on stderr")
    if result_path.exists():
        rec.update(json.loads(result_path.read_text()))
    else:
        rec["problems"].append("no result from the child")
    if not rec["problems"]:
        try:
            rec["problems"] += wl.check(workdir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            rec["problems"].append(f"output unreadable: {exc!r}")
    rec["output_bytes"] = (sum((workdir / n).stat().st_size for n in wl.outputs
                               if (workdir / n).exists())
                           + (workdir / "stdout.txt").stat().st_size)
    if traced:
        rec["imports"] = import_times(stderr)
    return rec


def describe(values: list[float]) -> dict:
    """Median, quartiles, count, and the highest percentile that has at least
    ten samples beyond it (None while there are fewer than 40 samples)."""
    values = sorted(values)
    n = len(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n >= 2 else (values[0],) * 3
    tail = None
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            tail = {"p": p, "value": statistics.quantiles(values, n=1000)[int(p * 10) - 1]}
            break
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": n, "tail": tail}


def environment() -> dict:
    def version(pkg: str) -> str | None:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "esdkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def measure(wl: workloads.Workload, workdir: Path, seconds: float, trace: bool,
            spans_path: Path) -> list[dict]:
    """Repetitions for `seconds` after a warm-up, at least MIN_REPS of each
    kind; with trace, untraced and traced repetitions alternate."""
    began = time.perf_counter()
    # Warm-up: compile esdkit's bytecode and page in numpy and scipy, which an
    # installed package does not pay on every call.
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                    "import esdkit.cli"], env=child_env(), check=True, timeout=RUN_LIMIT_S)
    start = time.perf_counter()
    records: list[dict] = []
    rep = 1
    while True:
        traced = trace and rep % 2 == 0
        kind = [r for r in records if r["traced"] == traced]
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in kind) if kind else 0.0
        if len(kind) >= MIN_REPS and elapsed + typical > seconds:
            break
        remaining = RUN_LIMIT_S - (time.perf_counter() - began)
        if remaining < typical:
            break
        records.append(run_rep(wl, workdir, rep, traced, spans_path, remaining))
        rep += 1
    return records


def layer_metrics(timed: list[dict], traced: list[dict]) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for name in traced[0]["trace"]["metrics"]:
        samples = [r["trace"]["metrics"][name] for r in traced]
        # Errors are summed, so one failing repetition cannot hide in a median.
        metrics[name] = sum(samples) if name.endswith(".errors") else statistics.median(samples)
    metrics["cli.output_bytes"] = statistics.median(r["output_bytes"] for r in traced)
    for group in IMPORT_GROUPS:
        metrics[f"import.{group}_s"] = statistics.median(r["imports"][group] for r in traced)
    metrics["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                   - statistics.median(r["run_s"] for r in timed))
    return metrics


def top_functions(traced: list[dict], count: int = 8) -> list[tuple[str, int, float]]:
    table = {}
    for r in traced:
        for name, (calls, self_s, _) in r["trace"]["functions"].items():
            entry = table.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
    rows = [(name, calls // len(traced), self_s / len(traced))
            for name, (calls, self_s) in table.items()]
    return sorted(rows, key=lambda row: -row[2])[:count]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes, for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not (SRC / "esdkit" / "cli.py").is_file():
        print(f"error: no esdkit sources under {SRC}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    for sub in ("results", "spans"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True)
    spans_path = OUT / "spans" / f"{tag}.tsv.gz"
    spans_path.unlink(missing_ok=True)
    try:
        wl = workloads.BUILDERS[args.workload](args.seed, workdir, args.tiny)
        records = measure(wl, workdir, args.seconds, bool(args.trace), spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r["problems"]]
    ok = [r for r in records if not r["problems"]]
    timed = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    env = environment()
    print(f"workload {args.workload} seed {args.seed}: esdkit {' '.join(wl.argv)}")
    print("environment " + json.dumps(env, sort_keys=True))
    for r in failed:
        print(f"FAILED repetition {r['rep']}: {'; '.join(r['problems'])}")
    error_rate = len(failed) / len(records)
    print(f"error_rate {error_rate:.6g} ratio ({len(failed)} of {len(records)} repetitions)")

    summary: dict[str, dict] = {}
    if timed:
        for name, unit in END_TO_END_UNITS.items():
            summary[name] = {"unit": unit, **describe([r[name] for r in timed])}
    if args.trace and traced and timed:
        units = per_layer_units()
        layer = layer_metrics(timed, traced)
        for name, unit in units.items():
            summary[name] = {"unit": unit, "median": layer[name], "n": len(traced)}
        run_s = summary["run_s"]["median"]
        print(f"top functions by self time (per traced repetition; untraced run_s {run_s:.4g} s):")
        for name, calls, self_s in top_functions(traced):
            print(f"  {name:<44} {calls:>9} calls {self_s:10.4f} s")
        wanted = units
    else:
        wanted = END_TO_END_UNITS
    for name in wanted:
        s = summary.get(name)
        if s is None:
            continue
        line = f"{name} {s['median']:.6g} {s['unit']}"
        if "q1" in s:
            tail = s["tail"]
            line += (f" (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']}, tail "
                     + (f"p{tail['p']:g} {tail['value']:.6g})" if tail else "none)"))
        print(line)

    samples = [{k: v for k, v in r.items() if k != "trace"} for r in records]
    (OUT / "results" / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "argv": wl.argv, "environment": env,
        "error_rate": error_rate, "summary": summary, "repetitions": samples,
    }, indent=1) + "\n")

    if not all(name in summary for name in wanted):
        print("error: no successful repetition of a needed kind", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": summary[name]["median"], "unit": summary[name]["unit"]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
