"""The per-process caches of the chart build carry no state from one scan to the next.

Recentering plans (``charts._shift_plan``), substitution split tables and
monomial code tables live for the whole process.  Scans of different degrees
run one after another in one process must still write the stored reference
reports byte for byte, and a long scan must not grow the plan cache.
"""

import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

from charvar_kam import charts, cli, jets
from charvar_kam.mcg import fixed_family_su3

_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def _report_sha256(stored: dict) -> str:
    """sha256 of the report file the CLI writes for the stored report's config."""
    config = stored["report"]["config"]
    cfg = cli.RunConfig(
        pipeline=config["pipeline"],
        s_values=[Fraction(repr(x)) for x in config["s_values"]],
        trunc_degree=config["trunc_degree"],
        format=config["format"],
    )
    report, code = cli.run(cfg)
    assert code == 0
    buf = io.StringIO()
    cli.dump_deterministic_json(report, buf)
    return hashlib.sha256((buf.getvalue() + "\n").encode()).hexdigest()


def test_reference_reports_in_one_process_across_degrees():
    for name in ("su3-window", "su3-deep", "su3-window"):
        stored = json.loads((_REFERENCE / f"{name}.json").read_text())
        assert _report_sha256(stored) == stored["sha256"], name


def test_plan_cache_holds_one_plan_per_polynomial_degree_and_zero_pattern():
    charts._shift_plan.cache_clear()
    charts._chart_cache.cache_clear()
    first = [Fraction(k, 10000) for k in range(2390, 2490, 2)]
    assert len(first) == 50
    cli.run(cli.RunConfig(pipeline="su3-main", s_values=first))
    patterns = {tuple(not c for c in charts._center8(charts.chart_spec(fixed_family_su3(s)))) for s in first}
    info = charts._shift_plan.cache_info()
    # P, Q, P without t and the six kept cat-map components: each built once
    assert len(patterns) == 1 and info.currsize == info.misses == 9
    splits = len(jets._SPLIT_TABLES)
    cli.run(cli.RunConfig(pipeline="su3-main", s_values=[Fraction(k, 10000) for k in range(2391, 2490, 2)]))
    assert charts._shift_plan.cache_info().currsize == charts._shift_plan.cache_info().misses == 9
    assert len(jets._SPLIT_TABLES) == splits
