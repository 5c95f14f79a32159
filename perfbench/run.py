"""Benchmark of the latticechains CLI: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the program is imported from its
``src/`` directory, nothing is installed. Each workload iteration is a fresh
Python process (child.py) running one command through
``latticechains.cli.main``, one process at a time, and its output is
checked. With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same untraced loop runs, then two
traced iterations give the per-layer metrics. Lines before it are for
people: the environment block and each metric with its unit. Full results
and traces are written under ``perfbench/out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from time import perf_counter
from typing import Callable

from tracing import LAYERS, summarise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.py"

SETUP_SPAWNS = 1  # `import latticechains.cli` processes timed before each iteration
MIN_ITERATIONS = 3  # workload iterations per run, however long they take
TRACED_ITERATIONS = 2  # traced iterations with --trace 1; their counts must agree
CHILD_TIMEOUT_S = 50  # a hung child is killed; a run with --trace 1 still ends within 180 s

END_TO_END = {"wall_rel": "x", "setup_s": "s", "peak_rss_mb": "MB", "polygons_per_ref": "1/ref"}


# Function self time is reported as a share of the traced work time, so a
# function a workload never calls reads 0 %, not a constant 0 s.
SELF_PCT = (
    "geometry.polygon_stats", "geometry.triangle_interior_points", "geometry.convex_hull_chain",
    "enumeration.enumerate_polygons", "enumeration.enumerate_D",
    "polyalgebra.add", "polyalgebra.mul",
    "verification.verify_all", "verification.lhs_main_via_polygons",
    "verification.unit_sum", "verification.unit_sum_process",
    "montecarlo.simulate", "montecarlo.compare",
    "explorer.search_unit_multisets", "explorer.triangle_signature",
    "cli.records_to_csv", "cli.records_from_csv", "cli.records_to_json", "cli.records_from_json",
)


def _per_layer() -> dict[str, str]:
    """Per-layer metric name -> unit, in report order."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    calls = ["geometry.polygon_stats", "geometry.triangle_interior_points",
             "geometry.convex_hull_chain", "enumeration.enumerate_polygons",
             "enumeration.enumerate_D", "polyalgebra.add", "polyalgebra.mul",
             "polyalgebra.term_x_pow_times_one_minus_x_pow", "explorer.triangle_signature",
             "explorer.match_signature", "explorer.unit_sum_of", "cli.PolygonRecord.validate"]
    units.update({f"{name}.calls": "count" for name in calls})
    units.update({f"{name}.items": "count" for name in ("enumeration.enumerate_polygons",
                                                        "enumeration.enumerate_D")})
    units.update({f"{name}.self_pct": "%" for name in SELF_PCT})
    units.update({
        "geometry.polygon_stats.calls_per_polygon": "calls/polygon",
        "montecarlo.distinct_masks": "count",
        "montecarlo.trials_per_hull": "trials/hull",
        "verification.checks_failed": "count",
        "explorer.found": "count",
        "cli.output_bytes": "bytes",
        "trace.overhead_s": "s",
    })
    return units


PER_LAYER = _per_layer()


@cache
def chain_count(i: int, j: int) -> int:
    """Convex chains from (0,0) to (i,j): step sequences (x, y) >= (1, 1)
    with strictly increasing slopes. Counted independently of the package."""

    @cache
    def count(rx: int, ry: int, px: int, py: int) -> int:
        if rx == 0 and ry == 0:
            return 1
        return sum(count(rx - x, ry - y, x, y)
                   for x in range(1, rx + 1) for y in range(1, ry + 1)
                   if y * px > py * x)

    return count(i, j, 1, 0)


Check = tuple[str, bool]


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[str]]  # seed -> child command
    polygons: int  # family members one iteration processes, fixed by the input
    check: Callable[[str], list[Check]]  # stdout -> named output checks


def verify_sweep(up_to: int) -> Workload:
    pairs = up_to * (up_to - 1) // 2

    def check(out: str) -> list[Check]:
        lines = out.splitlines()
        return [
            ("every pair line ends in PASS",
             len(lines) == pairs + 1 and all(line.endswith("  PASS") for line in lines[:-1])),
            ("summary reads all pairs pass", lines[-1:] == [f"{pairs}/{pairs} pairs pass"]),
        ]

    polygons = sum(chain_count(i, n - i) for n in range(2, up_to + 1) for i in range(1, n))
    return Workload("verify_sweep", lambda seed: ["verify", "--all-up-to", str(up_to)],
                    polygons, check)


def simulate(i: int, j: int, x: str, trials: int) -> Workload:
    def check(out: str) -> list[Check]:
        lines = out.splitlines()
        rows = lines[2:-2]
        try:
            tally = sum(int(row.split()[1]) for row in rows)
        except (IndexError, ValueError):
            tally = None
        return [
            ("one row per family member", len(rows) == chain_count(i, j)),
            ("tally covers exactly the requested trials",
             tally == trials and f"trials = {trials}," in lines[0]),
            ("exact total reads yes", "exact probabilities sum to 1: yes" in lines),
        ]

    return Workload(
        "simulate",
        lambda seed: ["simulate", "--i", str(i), "--j", str(j), "--x", x,
                      "--trials", str(trials), "--seed", str(seed), "--jobs", "1"],
        trials, check)


def explore(max_a: int, max_b: int, max_size: int, found: int, max_mn: int = 8) -> Workload:
    def check(out: str) -> list[Check]:
        lines = out.splitlines()
        return [
            ("expected number of multisets found",
             f"found {found} unit multiset(s)" in lines and len(lines) == 2 + 2 * found),
        ]

    # each found multiset is matched against every triangle up to max_mn x max_mn
    matched = found * sum(chain_count(m, n) for m in range(1, max_mn + 1)
                          for n in range(1, max_mn + 1))
    return Workload(
        "explore",
        lambda seed: ["explore", "--max-a", str(max_a), "--max-b", str(max_b),
                      "--max-size", str(max_size), "--max-m", str(max_mn), "--max-n", str(max_mn)],
        matched, check)


def enumerate_roundtrip(i: int, j: int) -> Workload:
    records = chain_count(i, j)

    def check(out: str) -> list[Check]:
        return [("reloaded records equal the emitted ones", out == (
            f"reloaded {records} csv records and {records} json records\n"
            "json records equal emitted: yes\n"
            "csv records equal json records: yes\n"))]

    return Workload("enumerate_roundtrip", lambda seed: ["roundtrip", str(i), str(j)],
                    2 * records, check)


# Each iteration does 0.15 to 0.3 s of work on a 2-vCPU VM: short enough
# that the reference process spawned just before it meets the host in the
# same state (README.md). The layer mix matches the larger inputs the
# workloads were first stated at; STATED keeps those for the prototype counts.
FULL = {w.name: w for w in (
    verify_sweep(13),
    simulate(5, 7, "1/3", 20_000),
    explore(4, 3, 4, found=4, max_mn=7),
    enumerate_roundtrip(8, 9),
)}
STATED = {w.name: w for w in (
    verify_sweep(17),
    simulate(6, 7, "1/3", 200_000),
    explore(4, 3, 6, found=21),
    enumerate_roundtrip(10, 11),
)}
TINY = {w.name: w for w in (
    verify_sweep(6),
    simulate(3, 4, "1/3", 2_000),
    explore(2, 2, 4, found=3, max_mn=3),
    enumerate_roundtrip(3, 4),
)}


@dataclass
class Spawn:
    wall_s: float  # from spawn to exit
    exit_code: int
    stdout: str
    stderr: str
    maxrss_kb: int  # the child's peak resident set, from its rusage
    report: dict  # written by child.py; empty for set-up spawns or a child that died first

    @property
    def timed_out(self) -> bool:
        return self.exit_code == -signal.SIGKILL


def spawn(cmd: list[str], report: Path | None = None) -> Spawn:
    """Run cmd in a fresh process and wait for it to exit.

    Output goes to files and the wait blocks, so the exit is timed when it
    happens rather than at the next poll; a timer kills a child that
    outlives CHILD_TIMEOUT_S.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    if report:
        report.unlink(missing_ok=True)
    with open(OUT / "child.stdout", "w+") as out, open(OUT / "child.stderr", "w+") as err:
        started = perf_counter()
        proc = subprocess.Popen(cmd, env=dict(os.environ, PYTHONPATH=str(SRC)),
                                stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        data = json.loads(report.read_text()) if report and report.exists() else {}
        return Spawn(wall, proc.returncode, out.read(), err.read(), usage.ru_maxrss, data)


def time_setup() -> float:
    setup = spawn([sys.executable, "-c", "import latticechains.cli"])
    if setup.exit_code:
        raise RuntimeError(f"importing latticechains.cli failed: {setup.stderr}")
    return setup.wall_s


def time_reference() -> float:
    reference = spawn([sys.executable, str(REFERENCE)])
    if reference.exit_code:
        raise RuntimeError(f"the reference program failed: {reference.stderr}")
    return reference.wall_s


def run_iteration(workload: Workload, seed: int, report: Path, trace_id: str | None = None) -> Spawn:
    cmd = [sys.executable, str(CHILD), "--src", str(SRC), "--report", str(report)]
    if trace_id:
        cmd += ["--trace", trace_id]
    return spawn([*cmd, "--", *workload.argv(seed)], report)


def check_iteration(workload: Workload, it: Spawn, first: Spawn) -> list[Check]:
    return [
        ("exit code 0", it.exit_code == 0 and it.report.get("exit_code") == 0),
        *workload.check(it.stdout),
        ("stdout byte-identical to the first iteration", it.stdout == first.stdout),
    ]


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 setup_spawns: int = SETUP_SPAWNS) -> dict:
    started = perf_counter()
    time_setup()  # compiles bytecode on a fresh checkout; not timed
    # Set-up is timed between iterations, so that both see the same spells
    # of a busy or quiet host.
    setup: list[float] = []
    reference: list[float] = []  # reference[k] ran just before untraced[k]
    untraced: list[Spawn] = []
    while len(untraced) < MIN_ITERATIONS or perf_counter() - started < seconds:
        setup += [time_setup() for _ in range(setup_spawns)]
        reference.append(time_reference())
        untraced.append(run_iteration(workload, seed, OUT / f"report-{workload.name}.json"))
        if untraced[-1].timed_out:
            break
    traced = [
        run_iteration(workload, seed, OUT / f"trace-{workload.name}-seed{seed}-{k}.json",
                      trace_id=f"{workload.name}-seed{seed}-traced{k}")
        for k in range(TRACED_ITERATIONS if trace and not untraced[-1].timed_out else 0)
    ]

    checks = [check_iteration(workload, it, untraced[0]) for it in untraced + traced]
    failures = [
        {"iteration": k, "checks": [name for name, ok in c if not ok], "stderr": it.stderr[-2000:]}
        for k, (it, c) in enumerate(zip(untraced + traced, checks)) if not all(ok for _, ok in c)
    ]
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "attempted": len(checks),
        "failed": len(failures),
        "check_names": [name for name, _ in checks[0]],
        "failures": failures,
        "stdout": untraced[0].stdout,
        "samples": {
            "setup_s": setup,
            "reference_s": reference,
            "wall_s": [it.wall_s for it in untraced],
            "work_s": [it.report.get("work_s") for it in untraced],
            "maxrss_kb": [it.maxrss_kb for it in untraced],
        },
    }
    good = [(it, ref) for it, ref, c in zip(untraced, reference, checks) if all(ok for _, ok in c)]
    if trace:
        result["metrics"], result["count_mismatch"] = per_layer_metrics(workload, traced, untraced)
    elif good:
        result["metrics"] = end_to_end_metrics(workload, setup, good)
    result["correct"] = not failures and bool(good) and not result.get("count_mismatch")
    return result


def end_to_end_metrics(workload: Workload, setup: list[float],
                       good: list[tuple[Spawn, float]]) -> dict:
    """Iteration times relative to the reference process run just before
    each, as medians over the run's iterations.

    Other tenants of a shared host slow every process by up to half, in
    spells that last from seconds to minutes, so a time in seconds varies
    between runs by more than a change worth catching. The reference
    process (reference.py) runs no program code and is slowed by the same
    spells, so the ratio of the two stays steady (README.md has the
    measured spreads). setup_s stays in seconds, as a median.
    """
    median = statistics.median
    return {
        "wall_rel": median(it.wall_s / ref for it, ref in good),
        "setup_s": median(setup),
        "peak_rss_mb": median(it.maxrss_kb for it, _ in good) / 1024,
        "polygons_per_ref": median(workload.polygons * ref / it.report["work_s"]
                                   for it, ref in good),
    }


def per_layer_metrics(workload: Workload, traced: list[Spawn],
                      untraced: list[Spawn]) -> tuple[dict, list[str]]:
    """Per-layer values (median over the traced iterations) and the names of
    counts that differ between traced iterations."""
    summaries = [summarise(it.report["trace"]) for it in traced if "trace" in it.report]
    if len(summaries) != len(traced) or not traced:
        return {}, ["a traced iteration wrote no trace"]
    counts = [dict(it.report["trace"]["counts"], hulls=s["hulls_in_simulate"])
              for it, s in zip(traced, summaries)]
    mismatch = sorted({k for c in counts for k in c if any(c.get(k) != d.get(k) for d in counts)})
    median = statistics.median
    count = counts[0]
    work_ns = [it.report["work_s"] * 1e9 for it in traced]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = median(s["layer_self_ns"].get(layer, 0) for s in summaries) / 1e9
    for name in SELF_PCT:
        metrics[f"{name}.self_pct"] = median(
            100 * s["self_ns"].get(name, 0) / w for s, w in zip(summaries, work_ns))
    for key in PER_LAYER:
        if key.endswith((".calls", ".items")):
            metrics[key] = count.get(key, 0)
    hulls = count["hulls"]
    metrics.update({
        "geometry.polygon_stats.calls_per_polygon":
            count.get("geometry.polygon_stats.calls", 0) / workload.polygons,
        "montecarlo.distinct_masks": hulls,
        "montecarlo.trials_per_hull": count.get("montecarlo.trials", 0) / hulls if hulls else 0,
        "verification.checks_failed": count.get("verification.checks_failed", 0),
        "explorer.found": count.get("explorer.found", 0),
        "cli.output_bytes": count.get("cli.output_bytes", 0),
        # fastest against fastest: the spells of a busy host only ever add time
        "trace.overhead_s": min(it.wall_s for it in traced) - min(it.wall_s for it in untraced),
    })
    return {key: metrics[key] for key in PER_LAYER}, mismatch


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "loadavg_at_start": os.getloadavg(),
        "seeds": [seed],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(FULL), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latticechains" / "cli.py").is_file():
        print(f"no latticechains source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    env = environment(args.seed)
    result = run_workload(FULL[args.workload], args.seed, args.seconds, bool(args.trace))
    env["runs"] = {args.workload: result["attempted"]}
    result["environment"] = env
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))

    print("environment: " + json.dumps(env))
    print(f"{args.workload}: {result['attempted']} iterations, {result['failed']} failed, "
          f"fail_ratio {result['failed'] / result['attempted']:.3f}")
    samples, median = result["samples"], statistics.median
    walls = samples["wall_s"]
    print(f"  untraced wall over {len(walls)} iterations: min {min(walls):.4f} s, "
          f"median {median(walls):.4f} s, max {max(walls):.4f} s; reference process: "
          f"median {median(samples['reference_s']):.4f} s; "
          f"{len(samples['setup_s'])} set-up processes timed")
    works = [w for w in samples["work_s"] if w]
    if works:
        rate = "trials_per_s" if args.workload == "simulate" else "polygons_per_s"
        print(f"  {rate} in seconds, untraced: median "
              f"{FULL[args.workload].polygons / median(works):.6g} 1/s")
    for failure in result["failures"]:
        print(f"iteration {failure['iteration']} failed: {', '.join(failure['checks'])}",
              file=sys.stderr)
        if failure["stderr"]:
            print(failure["stderr"].rstrip(), file=sys.stderr)
    if result.get("count_mismatch"):
        print("COUNTS DIFFER between traced iterations: " + ", ".join(result["count_mismatch"]),
              file=sys.stderr)
    line = result_line(result)
    for name, metric in line["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0


def result_line(result: dict) -> dict:
    """The machine-readable last line of a run."""
    units = PER_LAYER if result["trace"] else END_TO_END
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.get("metrics", {}).items()},
    }


if __name__ == "__main__":
    sys.exit(main())
