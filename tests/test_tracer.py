"""The benchmark's span tracer still finds every name it wraps.

``perfbench/tracer.py`` replaces entry points of the package by their
module-global or class-attribute names; a rename makes the benchmark crash.
This runs it over one SU(3) row and one SU(2) row so such a rename fails here,
and over a scan that ``cli.main`` writes to a file, as the benchmark's traced
pass does.
"""

import importlib.util
import statistics
from fractions import Fraction
from pathlib import Path

import pytest

from charvar_kam import charts, cli

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_traced_name():
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    charts._chart_cache.cache_clear()
    try:
        tracing.install_all(tracer)
        su3, _ = cli.run(cli.RunConfig(pipeline="su3-main", s_values=[Fraction("0.2411")], trunc_degree=3))
        su2, _ = cli.run(cli.RunConfig(pipeline="su2-brown", s_values=[Fraction("0.1")]))
    finally:
        restored = tracer.uninstall()
    assert restored is True
    assert su3["rows"][0]["verdict"] is True
    assert su2["rows"][0]["twist_ok"] is True
    assert len(tracer.row_s) == 2
    assert tracer.stats["charts._substituted_pq"][0] == 1
    assert tracer.stats["mcg.fixed_family_su2"][0] == 1  # the SU(2) row's one fixed point
    assert tracer.stats["mcg.fixed_family_su3"][0] == 1  # the SU(3) row's one fixed point


@pytest.mark.parametrize(
    "argv, row_fn",
    [
        (["--pipeline", "su2-brown", "--s", "0,0.1,0.15,0.2,0.9"], "pipelines.su2_brown_point"),
        (["--pipeline", "su3-main", "--s", "0.2411,0.4,0.249"], "pipelines.su3_main_point"),
    ],
)
def test_traced_cli_main_writing_a_file_records_one_row_span_per_s(tmp_path, argv, row_fn):
    """The rows the streamed report makes are the traced ones, one span each, inside ``cli.main``'s span."""
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    traced, plain = tmp_path / "traced.json", tmp_path / "plain.json"
    n_rows = len(cli.parse_s_values(argv[3]))
    try:
        tracing.install_all(tracer)
        tracer.set_phase("scan")
        code = cli.main([*argv, "--out", str(traced)])
    finally:
        restored = tracer.uninstall()
    assert restored is True and code == 0
    scan = tracer.phases["scan"]
    assert len(tracer.row_s) == scan[row_fn][0] == n_rows
    assert scan["cli.main"][0] == scan["cli.write_report"][0] == 1
    main_s = scan["cli.main"][2]
    assert statistics.median(tracer.row_s) > 0
    assert main_s - sum(tracer.row_s) >= 0  # the benchmark's cli.scan_overhead_s
    assert cli.main([*argv, "--out", str(plain)]) == 0
    assert traced.read_bytes() == plain.read_bytes()
