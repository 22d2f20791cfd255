"""Benchmark of charvar-kam scans, run as a user runs them: one fresh process per scan.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload su3-window|su3-deep|su2-sweep|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Without options it runs every workload, each first untraced and then traced,
for RUN_SECONDS each, on the default seed.  The options pick one workload,
one seed and one of the two passes; a comparison of two commits gives both
the same ``--seconds`` (RUN_SECONDS, the ``run_seconds`` of BENCHMARK.json).

Each sample starts a new Python process (perfbench/child.py) that imports
charvar_kam from ``src/``, builds the exact polynomials, and times
``charvar_kam.cli.main`` on a JSON scan written to a file, with the default
worker pool.  Samples repeat until ``--seconds`` have passed (at least
three); the figures reported are medians.  Set-up time is the median over
at least ten processes: when the scans were fewer, processes that only set
up fill in.  Every row of every report is checked against the paper's
claims, and for the default seed against the stored reference report.

In the traced pass the samples are traced (single worker, entry points
wrapped from perfbench/tracer.py), each followed by an untraced single-worker
sample whose report must be byte-identical to the traced one; the figures are
per-layer, and the exact counts must repeat between traced samples.  A failed
tracer check fails the run like a failed row.

The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with more than one
workload each metric name starts with the workload's.  The exit code is 0 when
every check passed, 1 when a check failed, and 2 when the benchmark could
not run at all (nothing is printed on that last line then).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
RUN_SECONDS = 30
MIN_SAMPLES = 3
MIN_SETUPS = 10
MIN_TRACED = 2
CHILD_TIMEOUT_S = 150
#: Relative (and absolute, for values near zero) float tolerance against the reference report.
REF_RTOL = 1e-9
REF_ATOL = 1e-12


class BenchError(Exception):
    """The benchmark could not produce a result."""


#: Numerators k (s = k/10**4) in the su3 window where numpy's eigenbasis C0 of
#: the chart's linear part has 30 nonzero entries instead of 20: round-off
#: fills in entries that are exactly zero elsewhere, and the diagonalized
#: jets come out about twice as dense, so such a row costs about 1.3x (degree
#: 3) to 4x (degree 5) a sparse one.
SU3_DENSE_BASIS = frozenset({2417, 2421, 2439, 2443, 2469, 2471, 2483})


@dataclass(frozen=True)
class Workload:
    pipeline: str
    degree: int
    lo: str
    hi: str
    digits: int
    rows: int
    dense: tuple[str, ...] = ()

    def s_values(self, seed: int) -> list[str]:
        """``rows`` distinct s in [lo, hi] with exactly ``digits`` decimals, drawn from ``seed``.

        Only numerators coprime to 10 are drawn, so every s reduces to a
        fraction over exactly 10**digits.  On SU(3) the seed draws from
        outside SU3_DENSE_BASIS, whose rows cost up to 4x a sparse one, and
        the ``dense`` rows (if any) are in every scan: drawing a dense row
        made the cost of a scan depend on the seed.  The drawn rows are in
        ascending order, and the dense rows sit at fixed interior places,
        spread evenly (places 6 and 13 of 20): with the default two-thread
        pool a slow row costs more the longer it shares the interpreter lock
        with other rows, so its place has to be fixed, and an interior place
        is the typical case, not the cheapest one (last).
        """
        scale = 10**self.digits
        lo, hi = Fraction(self.lo) * scale, Fraction(self.hi) * scale
        skip = SU3_DENSE_BASIS if self.pipeline == "su3-main" else frozenset()
        pool = [k for k in range(math.ceil(lo), math.floor(hi) + 1) if math.gcd(k, 10) == 1 and k not in skip]
        drawn = sorted(random.Random(seed).sample(pool, self.rows - len(self.dense)))
        picked = [f"0.{k:0{self.digits}d}" for k in drawn]
        for i, s in enumerate(self.dense):
            picked.insert((i + 1) * self.rows // (len(self.dense) + 1), s)
        return picked

    def cli_args(self, s_values: list[str], out: Path) -> list[str]:
        return [
            "--pipeline", self.pipeline, "--degree", str(self.degree),
            "--s", ",".join(s_values), "--format", "json", "--out", str(out),
        ]  # fmt: skip


# The dense rows of su3-window are the two dense-basis points nearest the
# middle of the window.  su3-deep has none: at degree 5 a dense row is 4x a
# sparse one and its large jets made the scan's time swing with the host's
# load about 1.5x as much as a scan of sparse rows only (NOTES.md, Noise).
WORKLOADS = {
    "su3-window": Workload("su3-main", 3, "0.239", "0.249", 4, 20, dense=("0.2439", "0.2443")),
    "su3-deep": Workload("su3-main", 5, "0.239", "0.249", 4, 4),
    "su2-sweep": Workload("su2-brown", 3, "0.005", "0.249", 5, 1000),
}

#: Bounded end-to-end metrics.  Wall time of the scan (scan_s) is printed but
#: not bounded: on a shared host it takes in the time the hypervisor gives
#: the machine's CPUs to other guests, which comes and goes over minutes.
END_TO_END = {"scan_cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer metrics: traced layers reported as a share of the traced scan
_SHARE_LAYERS = (
    "charts._translate",
    "charts._substituted_pq",
    "charts.solve_t",
    "charts.solve_z_implicit",
    "charts.ChartJet.residual_h",
    "charts.ChartJet.residual_level",
    "charts.chart_map_jet",
    "charts.su2_chart_map_jet",
    "spectral.classify_spectrum",
    "spectral.build_C0",
    "birkhoff.diagonalized_jets",
    "birkhoff.birkhoff_coefficients",
    "birkhoff.brjuno_partial_sum",
    "mcg.fixed_family_su2",
    "cli.write_report",
)
_JET_SHAPES = (
    "jets.mul.8x3.exact",
    "jets.mul.8x5.exact",
    "jets.mul.7x3.float",
    "jets.mul.7x5.float",
    "jets.mul.6x3.float",
    "jets.mul.6x5.float",
    "jets.mul.2x3.exact",
    "jets.mul.2x3.float",
    "jets.compose.8x3.exact",
    "jets.compose.8x5.exact",
    "jets.compose.6x3.float",
    "jets.compose.6x5.float",
    "jets.compose.2x3.float",
    "jets.substitute_variable.8x3.float",
    "jets.substitute_variable.8x5.float",
    "jets.substitute_variable.7x3.float",
    "jets.substitute_variable.7x5.float",
)
_CALL_COUNTS = (
    "charts.solve_t",
    "charts.solve_z_implicit",
    "charts.ChartJet.residual_h",
    "charts.ChartJet.residual_level",
    "charts.su2_chart_map_jet",
    "spectral.classify_spectrum",
    "spectral.build_C0",
    "birkhoff.diagonalized_jets",
    "birkhoff.birkhoff_coefficients",
    "birkhoff.brjuno_partial_sum",
)
_PER_ROW_COUNTS = ("charts._translate", "charts._substituted_pq", "mcg.fixed_family_su2")


def per_layer_units() -> dict[str, str]:
    units = {
        "cli.main.traced_s": "s",
        "trace.overhead_s": "s",
        "cli.scan_overhead_s": "s",
        "cli.write_report.self_s": "s",
        "pipelines.row_ms.p50": "ms",
        "varieties.p_poly.build_s": "s",
        "varieties.q_poly.build_s": "s",
        "mcg.cat_map_su3_poly.build_s": "s",
        "jets.mul.exact.self_pct": "%",
        "jets.mul.float.self_pct": "%",
        "jets.mul.exact.pairs_visited": "count",
        "jets.mul.exact.pairs_kept": "count",
        "jets.mul.float.pairs_visited": "count",
        "jets.mul.float.pairs_kept": "count",
        "charts.chart_cache.hits": "count",
        "charts.chart_cache.misses": "count",
    }
    for name in _SHARE_LAYERS:
        units[f"{name}.incl_pct"] = "%"
    for name in _JET_SHAPES:
        units[f"{name}.self_pct"] = "%"
        units[f"{name}.calls"] = "count"
        if name.startswith("jets.mul."):
            units[f"{name}.pairs_visited"] = "count"
            units[f"{name}.pairs_kept"] = "count"
    for name in _CALL_COUNTS:
        units[f"{name}.calls"] = "count"
    for name in _PER_ROW_COUNTS:
        units[f"{name}.calls_per_row"] = "count"
    return units


PER_LAYER = per_layer_units()


# -- running samples ----------------------------------------------------------


def _child_env(threads: str | None) -> dict:
    env = dict(os.environ)
    env.pop("CHARVAR_KAM_THREADS", None)
    if threads is not None:
        env["CHARVAR_KAM_THREADS"] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_sample(w: Workload, s_values: list[str] | None, out: Path, trace: bool, threads: str | None) -> dict:
    """One fresh process: set-up, then one timed ``cli.main`` scan writing ``out``.

    With ``s_values`` None the process only sets up.
    """
    cmd = [sys.executable, str(HERE / "child.py"), "--degree", str(w.degree), "--trace", str(int(trace)), "--"]
    if s_values is not None:
        cmd += w.cli_args(s_values, out)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(threads), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"sample did not finish within {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"sample process exited with {proc.returncode}:\n{proc.stderr.strip()}")
    try:
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"sample printed no result:\n{proc.stdout}\n{proc.stderr}") from exc
    sample["setup_s"] = sample["ready_monotonic"] - start
    if s_values is not None:
        sample["report_bytes"] = out.read_bytes()
    return sample


# -- checking reports ---------------------------------------------------------


def row_ok(pipeline: str, row: dict) -> bool:
    """The paper's claims for one row: fully elliptic with twist (and, on SU(3), a verdict)."""
    if "error" in row:
        return False
    if pipeline == "su3-main":
        return (
            row.get("spec_class") == ["elliptic"] * 3
            and row.get("twist_ok") is True
            and row.get("nonplanar_ok") is True
            and row.get("verdict") is True
        )
    return row.get("spec_class") == "elliptic" and row.get("twist_ok") is True


def _error_class(value):
    return value.split(":", 1)[0] if isinstance(value, str) else value


def matches_reference(got, want, key: str = "") -> bool:
    """Compare a report fragment to the reference; keys the reference lacks are ignored.

    Booleans, strings, integers and None must be equal; floats must agree to
    REF_RTOL relative (REF_ATOL absolute near zero); an ``error`` entry must
    name the same error class.
    """
    if key == "error":
        return _error_class(got) == _error_class(want)
    if isinstance(want, dict):
        return isinstance(got, dict) and all(k in got and matches_reference(got[k], v, k) for k, v in want.items())
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(matches_reference(g, v, key) for g, v in zip(got, want))
        )
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return math.isclose(got, want, rel_tol=REF_RTOL, abs_tol=REF_ATOL) or (math.isnan(got) and math.isnan(want))
    return type(got) is type(want) and got == want


def reference_path(name: str) -> Path:
    return HERE / "reference" / f"{name}.json"


def check_report(w: Workload, s_values: list[str], data: bytes, reference: dict | None) -> dict:
    """Rows attempted and failed in one report, plus reference diagnostics."""
    report = json.loads(data)
    rows = report.get("rows", [])
    wanted = [float(Fraction(s)) for s in s_values]
    failed = 0
    ref_rows = reference["report"]["rows"] if reference else None
    for i, s in enumerate(wanted):
        row = rows[i] if i < len(rows) else None
        ok = row is not None and row.get("s") == s and row_ok(w.pipeline, row)
        if ok and ref_rows is not None:
            ok = i < len(ref_rows) and matches_reference(row, ref_rows[i])
        failed += not ok
    extra = max(0, len(rows) - len(wanted))  # rows nobody asked for count as attempted and failed
    out = {"attempted": len(wanted) + extra, "failed": failed + extra}
    if reference is not None:
        head = {k: v for k, v in reference["report"].items() if k != "rows"}
        out["reference_header_ok"] = matches_reference({k: report.get(k) for k in head}, head)
        out["byte_identical"] = hashlib.sha256(data).hexdigest() == reference["sha256"]
    return out


# -- stamps and statistics ----------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' when it is not a git repository (git looks no higher)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _stat(sample: dict, phase: str, name: str, field: int) -> float:
    return sample["trace"]["phases"][phase].get(name, [0, 0.0, 0.0])[field]


def layer_metrics(sample: dict) -> dict[str, float]:
    """Per-layer figures of one traced sample, named as in PER_LAYER (all but trace.overhead_s)."""
    scan = sample["trace"]["phases"]["scan"]
    counts = sample["trace"]["counts"]
    rows = sample["trace"]["row_s"]
    traced = _stat(sample, "scan", "cli.main", 2)
    pct = 100.0 / traced
    m = {
        "cli.main.traced_s": traced,
        "cli.scan_overhead_s": traced - sum(rows),
        "cli.write_report.self_s": _stat(sample, "scan", "cli.write_report", 1),
        "pipelines.row_ms.p50": 1000.0 * statistics.median(rows),
        "varieties.p_poly.build_s": _stat(sample, "setup", "varieties.p_poly", 2),
        "varieties.q_poly.build_s": _stat(sample, "setup", "varieties.q_poly", 2),
        "mcg.cat_map_su3_poly.build_s": _stat(sample, "setup", "mcg.cat_map_su3_poly", 2),
        "charts.chart_cache.hits": sample["trace"]["chart_cache"]["hits"],
        "charts.chart_cache.misses": sample["trace"]["chart_cache"]["misses"],
    }
    for kind in ("exact", "float"):
        names = [n for n in scan if n.startswith("jets.mul.") and n.endswith("." + kind)]
        m[f"jets.mul.{kind}.self_pct"] = pct * sum(scan[n][1] for n in names)
        for what in ("pairs_visited", "pairs_kept"):
            m[f"jets.mul.{kind}.{what}"] = sum(counts.get(f"{n}.{what}", 0) for n in names)
    for name in _SHARE_LAYERS:
        m[f"{name}.incl_pct"] = pct * _stat(sample, "scan", name, 2)
    for name in _JET_SHAPES:
        m[f"{name}.self_pct"] = pct * _stat(sample, "scan", name, 1)
        m[f"{name}.calls"] = _stat(sample, "scan", name, 0)
        if name.startswith("jets.mul."):
            m[f"{name}.pairs_visited"] = counts.get(f"{name}.pairs_visited", 0)
            m[f"{name}.pairs_kept"] = counts.get(f"{name}.pairs_kept", 0)
    for name in _CALL_COUNTS:
        m[f"{name}.calls"] = _stat(sample, "scan", name, 0)
    for name in _PER_ROW_COUNTS:
        m[f"{name}.calls_per_row"] = _stat(sample, "scan", name, 0) / len(rows)
    return m


def exact_counts(sample: dict) -> dict:
    """Everything in a traced sample that must repeat exactly between traced runs."""
    calls = {(ph, n): st[0] for ph, stats in sample["trace"]["phases"].items() for n, st in stats.items()}
    return {"calls": calls, "counts": sample["trace"]["counts"], "cache": sample["trace"]["chart_cache"]}


# -- one workload -------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    w = WORKLOADS[name]
    s_values = w.s_values(seed)
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(reference_path(name).read_text())
    problems: list[str] = []
    samples: list[dict] = []
    untraced: list[dict] = []  # traced pass: single-worker samples alternating with the traced ones
    deadline = time.monotonic() + seconds
    least = MIN_TRACED if trace else MIN_SAMPLES
    while len(samples) < least or time.monotonic() < deadline:
        out = tmp / f"{name}-{len(samples)}.json"
        samples.append(run_sample(w, s_values, out, trace, "1" if trace else None))
        if trace:
            untraced.append(run_sample(w, s_values, out, False, "1"))
        out.unlink()

    attempted = failed = 0
    checked: dict[bytes, dict] = {}
    for sample in samples + untraced:
        data = sample["report_bytes"]
        if data not in checked:
            checked[data] = check_report(w, s_values, data, reference)
        result = checked[data]
        attempted += result["attempted"]
        failed += result["failed"]
        if sample["exit_code"] != 0:
            problems.append(f"cli.main returned {sample['exit_code']}")
    if len(checked) > 1:
        problems.append("reports of the same inputs differ between samples")
    first = checked[samples[0]["report_bytes"]]
    if reference is not None and not first["reference_header_ok"]:
        problems.append("report header differs from the reference")

    stamp = {
        "workload": name,
        "seed": seed,
        "commit": git_commit(),
        "python": samples[0]["python"],
        "numpy": samples[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "pool_width": samples[0]["pool_width"],
        "rows_per_scan": w.rows,
        "samples": len(samples),
        "trace": int(trace),
    }
    info = {"rows_failed_frac": f"{failed / attempted:.6g} fraction ({failed} of {attempted} rows)"}
    if reference is not None:
        info["reference_match"] = f"rows within rel {REF_RTOL:g} / abs {REF_ATOL:g}" if not failed else "see failed rows"
        info["reference_byte_identical"] = "yes" if first["byte_identical"] else "no"

    if not trace:
        setups = [s["setup_s"] for s in samples]
        while len(setups) < MIN_SETUPS:
            setups.append(run_sample(w, None, tmp / "unused.json", False, None)["setup_s"])
        metrics = {k: statistics.median([s[k] for s in samples]) for k in END_TO_END if k != "setup_s"}
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
        q = statistics.quantiles([s["scan_s"] for s in samples], n=4)
        info["scan_s"] = f"{q[1]:.6g} s (wall; quartiles {q[0]:.4f} {q[2]:.4f} s over {len(samples)} scans)"
    else:
        stamp["pool_width"] = untraced[0]["pool_width"]
        if any(s["report_bytes"] != u["report_bytes"] for s, u in zip(samples, untraced)):
            problems.append("traced report differs from the untraced single-worker report")
        if not all(s["restored"] for s in samples):
            problems.append("tracer left a wrapped name in place")
        counts = [exact_counts(s) for s in samples]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("exact counts differ between traced runs")
        per_sample = [layer_metrics(s) for s in samples]
        metrics = {k: statistics.median([m[k] for m in per_sample]) for k in per_sample[0]}
        metrics["trace.overhead_s"] = metrics["cli.main.traced_s"] - statistics.median([u["scan_s"] for u in untraced])
        metrics = {k: metrics[k] for k in PER_LAYER}
        units = PER_LAYER
        rows = [r for s in samples for r in s["trace"]["row_s"]]
        if len(rows) >= 100:
            info["pipelines.row_ms.p90"] = f"{1000.0 * statistics.quantiles(rows, n=10)[-1]:.6g} ms over {len(rows)} rows"
    return {
        "stamp": stamp,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "info": info,
    }


def write_reference(name: str, tmp: Path):
    """Store the default-seed report of this checkout as the workload's reference."""
    w = WORKLOADS[name]
    s_values = w.s_values(DEFAULT_SEED)
    out = tmp / f"{name}-reference.json"
    sample = run_sample(w, s_values, out, False, "1")
    data = sample["report_bytes"]
    payload = {
        "workload": name,
        "seed": DEFAULT_SEED,
        "commit": git_commit(),
        "sha256": hashlib.sha256(data).hexdigest(),
        "report": json.loads(data),
    }
    path = reference_path(name)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    print(path.relative_to(ROOT))


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="charvar-kam scan benchmark (see module docstring)")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), help="0: end-to-end pass only, 1: traced pass only (default: both)"
    )
    parser.add_argument(
        "--write-reference", action="store_true", help="store the default-seed reports of this checkout and exit"
    )
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    if not (ROOT / "src" / "charvar_kam" / "__init__.py").is_file():
        print(f"benchmark: no charvar_kam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_reference:
            for name in names:
                write_reference(name, tmp)
            return 0
        passes = (False, True) if args.trace is None else (bool(args.trace),)
        results = [run_workload(name, args.seed, args.seconds, trace, tmp) for name in names for trace in passes]
    except (BenchError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    for res in results:
        name = res["stamp"]["workload"]
        print("# stamp " + json.dumps(res["stamp"]))
        for metric, entry in res["metrics"].items():
            print(f"{name:10s} {metric:44s} {entry['value']:.6g} {entry['unit']}")
        for key, value in res["info"].items():
            print(f"{name:10s} {key:44s} {value}")
        for problem in res["problems"]:
            print(f"{name:10s} CHECK FAILED: {problem}")
    correct = all(r["failed"] == 0 and not r["problems"] for r in results)
    prefix = len(names) > 1
    metrics = {f"{r['stamp']['workload']}." * prefix + k: v for r in results for k, v in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
