"""The benchmark's span tracer still finds every name it wraps.

``perfbench/tracer.py`` replaces entry points of the package by their
module-global or class-attribute names; a rename makes the benchmark crash.
This runs it over one SU(3) row and one SU(2) row so such a rename fails here.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

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
