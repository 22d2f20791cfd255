import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charvar_kam
from charvar_kam import charts, cli
from charvar_kam.cli import (
    RunConfig,
    compare_golden,
    dump_goldens,
    parse_s_values,
    run,
)


def child_env(env=None):
    """The environment with the tested package first on the child's import path."""
    full_env = dict(os.environ)
    src = str(Path(charvar_kam.__file__).resolve().parents[1])
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, full_env.get("PYTHONPATH")]))
    if env:
        full_env.update(env)
    return full_env


def run_cli(args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "charvar_kam.cli", *args],
        capture_output=True,
        text=True,
        env=child_env(env),
    )


# ------------------------------------------------------------------ config


def test_parse_s_list():
    assert parse_s_values("0.239,0.24") == [Fraction("0.239"), Fraction("0.24")]


def test_parse_s_range_exact():
    got = parse_s_values("0.239:0.249:0.002")
    assert got == [Fraction("0.239") + k * Fraction("0.002") for k in range(6)]
    assert got[-1] == Fraction("0.249")


def test_parse_s_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(cli, "MAX_S_VALUES", 5)
    assert len(parse_s_values("0:0.4:0.1")) == 5
    assert len(parse_s_values("1,2,3,4,5")) == 5
    with pytest.raises(ValueError, match="cap"):
        parse_s_values("0:0.5:0.1")
    with pytest.raises(ValueError, match="cap"):
        parse_s_values("1,2,3,4,5,6")


def test_parse_s_cap_is_ten_to_the_fifth():
    """0:1:0.00001 asks for 100,001 values, one more than the cap allows."""
    with pytest.raises(ValueError, match=r"^100001 s values requested, more than the cap of 100000$"):
        parse_s_values("0:1:0.00001")


def test_cli_rejects_huge_grid_before_building_it():
    """About 2.5e8 rows: rejected from start, stop and step alone.

    The child's address space is capped at 2 GiB, far below what building the
    grid would take, so a regression fails here instead of exhausting memory.
    """

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    res = subprocess.run(
        [sys.executable, "-m", "charvar_kam.cli", "--pipeline", "su2-brown", "--s", "0:0.249:1e-9"],
        capture_output=True,
        text=True,
        env=child_env(),
        preexec_fn=cap_memory,
    )
    assert res.returncode == 2
    assert "config error" in res.stderr and "cap" in res.stderr


def test_config_rejects_pole():
    with pytest.raises(ValueError):
        RunConfig(pipeline="su3-main", s_values=[Fraction(1, 2)])


@pytest.mark.parametrize("pipeline", ["su2-brown", "su3-main"])
def test_config_rejects_s_outside_the_double_range(pipeline):
    """A library caller's s is checked as ``--s`` is: the report prints each s as a double."""
    with pytest.raises(ValueError, match="is outside the double range"):
        RunConfig(pipeline=pipeline, s_values=[Fraction(1, 10), Fraction(10) ** 400])
    with pytest.raises(ValueError, match="is outside the double range"):
        run(RunConfig(pipeline=pipeline, s_values=[-Fraction(10) ** 309]))
    RunConfig(pipeline=pipeline, s_values=[Fraction(10) ** 300, Fraction(1, 10**400)])  # 1e-400 rounds to 0.0: accepted


def test_config_error_cuts_a_long_s():
    """A 2000-digit s is named by its first digits, as ``--s`` names a long text."""
    with pytest.raises(ValueError, match="is outside the double range") as info:
        RunConfig(pipeline="su2-brown", s_values=[Fraction(10) ** 1999])
    assert len(str(info.value)) < 100 and str(info.value).startswith("s = 1000")


def test_config_rejects_unknown_pipeline():
    with pytest.raises(ValueError):
        RunConfig(pipeline="nope")


def test_cli_exit_2_on_pole():
    res = run_cli(["--pipeline", "su2-brown", "--s", "0.5"])
    assert res.returncode == 2
    assert "config error" in res.stderr


@pytest.mark.parametrize("pipeline", ["su2-brown", "su3-main"])
@pytest.mark.parametrize("s_text, bad", [("0.1,1e400", "1e400"), ("-1e309:0:1e300", "-1e309")])
def test_s_outside_the_double_range_is_a_config_error_before_any_row(monkeypatch, capsys, pipeline, s_text, bad):
    rows = []
    monkeypatch.setattr(cli, "su3_main_point", lambda *args: rows.append(args) or {})
    monkeypatch.setattr(cli, "su2_brown_point", lambda *args: rows.append(args) or {})
    code = cli.main(["--pipeline", pipeline, "--s", s_text])
    out = capsys.readouterr()
    assert (code, rows, out.out) == (2, [], "")
    assert out.err == f"config error: s = {bad} is outside the double range\n"


@pytest.mark.parametrize(
    "pipeline, s_text, named",
    [
        ("su2-brown", "1e-100000", "s = 1e-100000"),
        ("su2-brown", "1e-1000000", "s = 1e-1000000"),
        ("su2-brown", "1e-10000000", "s = 1e-10000000"),
        ("su3-main", "1e-5000", "s = 1e-5000"),
        ("su2-brown", "0:1:1e-100000", "range step = 1e-100000"),
    ],
)
def test_s_past_the_digit_cap_is_a_config_error_before_any_row(monkeypatch, capsys, pipeline, s_text, named):
    """Such an s exits 2 at once: ``Fraction("1e-10000000")`` alone takes seconds to build."""
    rows = []
    monkeypatch.setattr(cli, "su3_main_point", lambda *args: rows.append(args) or {})
    monkeypatch.setattr(cli, "su2_brown_point", lambda *args: rows.append(args) or {})
    start = time.perf_counter()
    code = cli.main(["--pipeline", pipeline, "--s", s_text])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr()
    assert (code, rows, out.out) == (2, [], "")
    assert out.err == f"config error: {named} is past the cap of {cli.MAX_S_DIGITS} digits\n"
    assert elapsed < 0.5


def test_the_digit_cap_counts_the_exact_value_and_names_no_long_integer():
    assert parse_s_values("1e-1999") == [Fraction(1, 10**1999)]
    with pytest.raises(ValueError, match=r"^s = 1e-2000 is past the cap of 2000 digits$"):
        parse_s_values("1e-2000")  # its denominator has 2001 digits
    with pytest.raises(ValueError, match=r"^s = 3333333333333333333333333333333333333\.\.\. is past the cap"):
        parse_s_values("3" * 5000)  # past CPython's 4300-digit limit on int()
    with pytest.raises(ValueError, match=r"^s is past the cap of 2000 digits$"):
        RunConfig(pipeline="su2-brown", s_values=[Fraction(1, 10**100000)])
    with pytest.raises(ValueError, match=r"^over 10\^9 s values requested, more than the cap of 100000$"):
        parse_s_values("0:1:1e-1999")


def test_cli_s_takes_a_negative_start_as_its_own_argument():
    """``--s -1:...`` reads the range, as ``--s=-1:...`` does; ``--s --format`` is still an error."""
    spaced = run_cli(["--pipeline", "su2-brown", "--s", "-1:-0.9:0.05", "--format", "csv"])
    joined = run_cli(["--pipeline", "su2-brown", "--s=-1:-0.9:0.05", "--format", "csv"])
    assert spaced.returncode == joined.returncode == 0
    assert spaced.stdout == joined.stdout
    assert len(spaced.stdout.splitlines()) == 4
    assert cli._join_negative_s(["--s", "-.5,0.1", "--s", "-0.5"]) == ["--s=-.5,0.1", "--s=-0.5"]
    missing = run_cli(["--pipeline", "su2-brown", "--s", "--format", "csv"])
    assert missing.returncode == 2
    assert "argument --s: expected one argument" in missing.stderr


def test_cli_rejects_degree_below_three():
    res = run_cli(["--pipeline", "su3-main", "--s", "0.24", "--degree", "2"])
    assert res.returncode == 2
    assert "config error: truncation degree must be at least 3" in res.stderr


@pytest.mark.parametrize("pipeline", ["su3-main", "su2-brown"])
def test_degree_above_the_cap_is_a_config_error_before_any_chart(monkeypatch, capsys, pipeline):
    degree = cli.MAX_DEGREE + 1
    built = []
    monkeypatch.setattr(charts, "chart_spec", lambda *args: built.append(args))
    monkeypatch.setattr(cli, "su3_main_point", lambda *args: built.append(args) or {})
    monkeypatch.setattr(cli, "su2_brown_point", lambda *args: built.append(args) or {})
    code = cli.main(["--pipeline", pipeline, "--s", "0.2411", "--degree", str(degree)])
    out = capsys.readouterr()
    assert (code, built, out.out) == (2, [], "")
    assert out.err == f"config error: truncation degree {degree} is above the cap of {cli.MAX_DEGREE}\n"
    assert RunConfig(pipeline=pipeline, trunc_degree=cli.MAX_DEGREE).trunc_degree == cli.MAX_DEGREE


def test_su2_report_records_the_degree_its_rows_ran_at(tmp_path):
    """An su2 row always charts at degree 3, so ``--degree 5`` changes neither its rows nor its recorded degree."""
    reports = {}
    for degree in ("3", "5"):
        out = tmp_path / f"d{degree}.json"
        assert cli.main(["--pipeline", "su2-brown", "--s", "0.1,0.249,0.9", "--degree", degree, "--out", str(out)]) == 0
        reports[degree] = out.read_bytes()
    assert json.loads(reports["5"])["config"]["trunc_degree"] == 3
    assert reports["5"] == reports["3"]


# ------------------------------------------------------------------ reports


def test_empty_scan_exits_zero():
    report, code = run(RunConfig(pipeline="su2-brown", s_values=[]))
    assert code == 0
    assert report["rows"] == []
    assert report["schema"] == "kam-report/1"


def test_su2_scan_rows():
    cfg = RunConfig(pipeline="su2-brown", s_values=[Fraction(0), Fraction(1, 10)])
    report, code = run(cfg)
    assert code == 0
    assert report["rows"][0]["degenerate"] is True
    assert report["rows"][1]["spec_class"] == "elliptic"
    assert report["rows"][1]["twist_ok"] is True
    assert report["verdict_found"] is True


def test_su2_require_verdict_failure_is_exit_3():
    cfg = RunConfig(
        pipeline="su2-brown", s_values=[Fraction(9, 10)], require_verdict=True
    )
    report, code = run(cfg)
    assert code == 3
    assert "error" in report["rows"][0]


def test_su2_scan_ignores_golden():
    cfg = RunConfig(pipeline="su2-brown", s_values=[Fraction(1, 10)], golden="missing.json")
    report, code = run(cfg)
    assert code == 0
    assert "golden" not in report


@pytest.mark.parametrize(
    "content,message",
    [
        (None, "No such file"),
        ("not json", "is not JSON"),
        ("{}", "s is missing"),
        ('{"s": 0.249}', "fixed_point_shifts is missing"),
        ("golden with a bad term", "t_jet.terms[0].exps is not a list of 7 non-negative integers"),
        ("golden with an infinite s", "s is not finite"),
    ],
)
def test_bad_golden_file_is_a_config_error_before_any_row(tmp_path, monkeypatch, capsys, content, message):
    path = tmp_path / "golden.json"
    if content is not None and content.startswith("golden with"):
        dump_goldens(tmp_path)
        data = json.loads((tmp_path / "su3_chart_s249.json").read_text())
        if content == "golden with a bad term":
            data["t_jet"]["terms"][0]["exps"] = [0, 0, 0, 0, 0, -1, 3]
        else:
            data["s"] = math.inf
        content = json.dumps(data)
    if content is not None:
        path.write_text(content)
    rows = []
    monkeypatch.setattr(cli, "su3_main_point", lambda *args: rows.append(args) or {})
    code = cli.main(["--pipeline", "su3-main", "--s", "0.249", "--golden", str(path)])
    out = capsys.readouterr()
    assert (code, rows, out.out) == (2, [], "")
    assert out.err.startswith(f"config error: golden file {path}") and message in out.err
    assert out.err.count("\n") == 1


def test_su3_row_errors_do_not_abort_scan():
    cfg = RunConfig(
        pipeline="su3-main", s_values=[Fraction(0), Fraction(241, 1000)]
    )
    report, code = run(cfg)
    assert code == 0
    assert "error" in report["rows"][0]  # degenerate chart at the reducible point
    assert report["rows"][1]["verdict"] is True


_TINY = Fraction(1, 10**170)


@pytest.mark.parametrize(
    "pipeline, s_values",
    [
        ("su2-brown", [Fraction(1, 10), _TINY, Fraction(2, 10)]),
        ("su3-main", [Fraction("0.2411"), Fraction(1, 4) + _TINY, Fraction("0.2413")]),
    ],
)
def test_radicand_underflow_is_a_recorded_row_error(pipeline, s_values):
    """The exact radicand at the center is positive but rounds to 0.0 as a float."""
    report, code = run(RunConfig(pipeline=pipeline, s_values=s_values))
    assert code == 0
    first, middle, last = report["rows"]
    assert middle["error"].startswith("SingularChartError: ")
    neighbours, _ = run(RunConfig(pipeline=pipeline, s_values=[s_values[0], s_values[2]]))
    assert neighbours["rows"] == [first, last]
    assert first["twist_ok"] is True and last["twist_ok"] is True


def test_su3_rows_whose_values_overflow_a_double_are_recorded(tmp_path):
    """|s| from 1e40 up: the chart, ell or the fixed point overflows; each row records it."""
    out, alone = tmp_path / "scan.json", tmp_path / "alone.json"
    assert cli.main(["--pipeline", "su3-main", "--s", "0.241,1e40,-1e60,1e100,1e200", "--out", str(out)]) == 0
    assert cli.main(["--pipeline", "su3-main", "--s", "0.241", "--out", str(alone)]) == 0
    first, *rest = json.loads(out.read_text())["rows"]
    assert json.dumps(first) == json.dumps(json.loads(alone.read_text())["rows"][0])
    assert [row["error"].split(":")[0] for row in rest] == [
        "OverflowError", "SingularChartError", "OverflowError", "OverflowError"
    ]
    # each overflow names its s and the step that overflowed
    overflows = [row["error"] for row in rest if row["error"].startswith("OverflowError")]
    assert overflows == [
        f"OverflowError: s = {10**40}: recentering at the fixed point overflows a double",
        f"OverflowError: s = {10**100}: the level does not fit a double",
        f"OverflowError: s = {10**200}: the fixed point does not fit a double",
    ]


def test_json_determinism_byte_identical(tmp_path):
    args = ["--pipeline", "su2-brown", "--s", "0.1,0.2", "--format", "json"]
    a = run_cli([*args, "--out", str(tmp_path / "a.json")])
    b = run_cli([*args, "--out", str(tmp_path / "b.json")])
    assert a.returncode == 0 and b.returncode == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_json_floats_have_17_significant_digits(tmp_path):
    out = tmp_path / "r.json"
    run_cli(["--pipeline", "su2-brown", "--s", "0.1", "--out", str(out)])
    text = out.read_text()
    assert "0.10000000000000001" in text  # 17g rendering of float 0.1
    json.loads(text)  # still valid JSON


def _writer_cases():
    """Objects whose JSON text pins every rule of the report format."""
    import enum

    import numpy as np

    from charvar_kam.pipelines import su2_brown_point

    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
    for path in sorted(reference.glob("*.json")):
        yield json.loads(path.read_text())["report"]
    yield [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 0.1, -2.5]
    yield {"a": {}, "b": [], "c": (), "d": {"e": [[], {}, [1, [2, {"f": ()}]]]}, "g": (1, (2.0, "h"))}
    yield [True, 1, False, 0, None, 1.0, True, -7, 10**30]
    yield {
        'quote"': 1, "back\\slash": 2, "new\nline": 3, "tab\t": 4, "é ü": 5, "\u2028": 6, "\x00": 7,
        1: "one", 2.5: "two and a half", None: "none", (1, 2): "pair", False: "false",
    }
    yield [{1: "int key"}, {True: "bool key"}, {"1": "str key"}]  # equal keys of other types, one cache
    yield [su2_brown_point(Fraction(2)), su2_brown_point(Fraction(1, 10)), su2_brown_point(Fraction(0))]
    yield {"error": 'PoleError: "quoted" \\ é', "notes": "", "tags": ["elliptic", "hyperbolic"]}

    class Tag(enum.IntEnum):
        A = 1

    class Text(str):
        pass

    class Real(float):
        pass

    yield [np.float64(0.25), np.int64(3), np.bool_(True), Tag.A, Text("t"), Real(1.5), Fraction(1, 3), 1j]
    yield {}
    yield []
    yield 3.0
    yield "just text"


@pytest.mark.parametrize("indent", [0, 2])
def test_report_writer_matches_the_recursive_writer(indent):
    """One join of pieces gives the bytes of the recursive writer that wrote each piece to the stream."""
    from oracles import dump_json_recursive

    for obj in _writer_cases():
        want, got = io.StringIO(), io.StringIO()
        dump_json_recursive(obj, want, indent)
        cli.dump_deterministic_json(obj, got, indent)
        assert got.getvalue() == want.getvalue()


def test_csv_columns(tmp_path):
    out = tmp_path / "r.csv"
    res = run_cli(
        ["--pipeline", "su3-main", "--s", "0.241", "--format", "csv", "--out", str(out)]
    )
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s,ell,spec_class,alpha_det_re,alpha_det_im,twist_ok,nonplanar_ok,notes"
    fields = lines[1].split(",")
    assert fields[2] == "elliptic;elliptic;elliptic"
    assert fields[5] == "True" and fields[6] == "True"


def test_rows_keep_input_order(tmp_path):
    out = tmp_path / "r.json"
    res = run_cli(["--pipeline", "su2-brown", "--s", "0.05,0.1,0.15", "--out", str(out)])
    assert res.returncode == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["s"] for r in rows] == [0.05, 0.1, 0.15]  # input order preserved


def test_dump_jets_embeds_schema():
    cfg = RunConfig(pipeline="su3-main", s_values=[Fraction(249, 1000)], dump_jets=True)
    report, _ = run(cfg)
    jets = report["rows"][0]["jets"]
    assert jets["t_jet"]["num_vars"] == 7
    assert jets["z_jet"]["num_vars"] == 6
    assert len(jets["map_jet"]) == 6


def test_linalg_error_in_spectral_is_recorded_and_scan_goes_on(monkeypatch):
    from charvar_kam import spectral

    real_inv = spectral.np.linalg.inv
    calls = []

    def inv_failing_once(a):
        calls.append(1)
        if len(calls) == 1:
            raise spectral.np.linalg.LinAlgError("Singular matrix")
        return real_inv(a)

    monkeypatch.setattr(spectral.np.linalg, "inv", inv_failing_once)
    cfg = RunConfig(pipeline="su3-main", s_values=[Fraction(241, 1000), Fraction(249, 1000)])
    report, code = run(cfg)
    assert code == 0
    assert report["rows"][0]["error"].startswith("NonDiagonalizableError: ")
    assert "verdict" not in report["rows"][0]
    assert report["rows"][1]["verdict"] is True


# ------------------------------------------------------------------ goldens


def test_dump_goldens_round_trip(tmp_path):
    paths = dump_goldens(tmp_path)
    assert sorted(p.name for p in paths) == ["level_function.json", "su3_chart_s249.json"]
    chart = json.loads((tmp_path / "su3_chart_s249.json").read_text())
    assert chart["alpha"]["det"] == {"re": -20.077, "im": -0.73655}
    level = json.loads((tmp_path / "level_function.json").read_text())
    assert level["numerator_octic_coefficients"][-1] == 256


def test_golden_comparison_passes(tmp_path):
    paths = dump_goldens(tmp_path)
    path = tmp_path / "su3_chart_s249.json"
    result = compare_golden(path, cli._read_golden(path))
    assert result["ok"] is True
    binding = [c for c in result["checks"] if c["binding"]]
    assert len(binding) >= 20
    assert all(c["rel_err"] < 1e-3 for c in binding)


def test_cli_golden_flag(tmp_path):
    dump_goldens(tmp_path)
    out = tmp_path / "rep.json"
    res = run_cli(
        [
            "--pipeline", "su3-main", "--s", "0.249",
            "--golden", str(tmp_path / "su3_chart_s249.json"),
            "--out", str(out),
        ]
    )
    assert res.returncode == 0
    report = json.loads(out.read_text())
    assert report["golden"]["ok"] is True


def test_golden_reuses_kam_report_not_a_full_row(tmp_path, monkeypatch):
    """--golden takes its alpha_det diagnostic without a second full row."""
    from charvar_kam.charts import ChartJet
    from charvar_kam.pipelines import su3_main_point

    dump_goldens(tmp_path)
    real = ChartJet.residual_h
    calls = []

    def counted(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(ChartJet, "residual_h", counted)
    out = tmp_path / "rep.json"
    argv = ["--pipeline", "su3-main", "--s", "0.249", "--out", str(out)]
    assert cli.main([*argv, "--golden", str(tmp_path / "su3_chart_s249.json")]) == 0
    assert len(calls) == 1
    report = json.loads(out.read_text())
    diagnostic = report["golden"]["checks"][-1]
    assert diagnostic["name"] == "alpha_det (diagnostic)"
    det = su3_main_point(Fraction(249, 1000))["alpha_det"]
    assert diagnostic["got"] == [det["re"], det["im"]]


def test_golden_runs_each_step_once(tmp_path, monkeypatch):
    """A row at the file's s with --golden: the file is read once; the row and the comparison each take one
    fixed point and one chart lookup, and the comparison reads the row instead of making another."""
    from charvar_kam import pipelines

    dump_goldens(tmp_path)
    calls = []

    def counted(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(name) or real(*args))

    for module in (cli, pipelines):
        counted(module, "fixed_family_su3")
        counted(module, "chart_map_jet")
    counted(cli, "_read_golden")
    counted(cli, "su3_main_point")
    counted(pipelines, "classify_spectrum")
    counted(pipelines, "birkhoff_coefficients")
    out = tmp_path / "rep.json"
    argv = ["--pipeline", "su3-main", "--s", "0.249", "--out", str(out)]
    assert cli.main([*argv, "--golden", str(tmp_path / "su3_chart_s249.json")]) == 0
    assert {name: calls.count(name) for name in calls} == {
        "_read_golden": 1, "fixed_family_su3": 2, "chart_map_jet": 2, "su3_main_point": 1,
        "classify_spectrum": 1, "birkhoff_coefficients": 1,
    }
    assert json.loads(out.read_text())["golden"]["ok"] is True


def test_golden_takes_the_rows_chart_wherever_the_row_sits(tmp_path):
    """The golden jet checks run right after the row at the file's s, while the one-entry chart cache holds it."""
    from charvar_kam import charts

    dump_goldens(tmp_path)
    charts._chart_cache.cache_clear()
    out = tmp_path / "rep.json"
    argv = ["--pipeline", "su3-main", "--s", "0.249,0.241", "--out", str(out)]
    assert cli.main([*argv, "--golden", str(tmp_path / "su3_chart_s249.json")]) == 0
    assert charts._chart_cache.cache_info().misses == 2
    assert json.loads(out.read_text())["golden"]["ok"] is True


@pytest.mark.parametrize(
    "s_text, degree, chains",
    [("0.249", "5", 2), ("0.241,0.245", "3", 3), ("0.249,0.241", "3", 2)],
    ids=["degree 5", "s absent", "s not last"],
)
def test_golden_diagnostic_is_the_degree_3_alpha_det(tmp_path, monkeypatch, s_text, degree, chains):
    """The diagnostic is the alpha_det of the degree-3 row at the file's s: the scan's own, or one the comparison makes."""
    from charvar_kam.pipelines import su3_main_point

    dump_goldens(tmp_path)
    want = su3_main_point(Fraction(249, 1000))["alpha_det"]
    calls = []
    monkeypatch.setattr(cli, "su3_main_point", lambda *args: calls.append(1) or su3_main_point(*args))
    out = tmp_path / "rep.json"
    argv = ["--pipeline", "su3-main", "--s", s_text, "--degree", degree, "--out", str(out)]
    assert cli.main([*argv, "--golden", str(tmp_path / "su3_chart_s249.json")]) == 0
    assert len(calls) == chains
    golden = json.loads(out.read_text())["golden"]
    assert golden["ok"] is True
    diagnostic = golden["checks"][-1]
    assert diagnostic["name"] == "alpha_det (diagnostic)"
    assert diagnostic["got"] == [want["re"], want["im"]]


def test_golden_zero_alpha_det_is_divided_by_the_floor(tmp_path):
    """A golden alpha.det of 0 gives the diagnostic a relative error over GOLDEN_REL_FLOOR, not a ZeroDivisionError."""
    dump_goldens(tmp_path)
    golden_path = tmp_path / "su3_chart_s249.json"
    data = json.loads(golden_path.read_text())
    data["alpha"]["det"] = {"re": 0, "im": 0}
    golden_path.write_text(json.dumps(data))
    out = tmp_path / "rep.json"
    assert cli.main(["--pipeline", "su3-main", "--s", "0.249", "--golden", str(golden_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    diagnostic = report["golden"]["checks"][-1]
    det = report["rows"][0]["alpha_det"]
    assert diagnostic["want"] == [0.0, 0.0]
    assert diagnostic["rel_err"] == abs(complex(det["re"], det["im"])) / cli.GOLDEN_REL_FLOOR
    assert diagnostic["ok"] is True and report["golden"]["ok"] is True


def test_golden_mismatch_detected(tmp_path):
    paths = dump_goldens(tmp_path)
    golden_path = tmp_path / "su3_chart_s249.json"
    data = json.loads(golden_path.read_text())
    data["t_jet"]["constant"] = -0.02  # corrupt a binding value
    golden_path.write_text(json.dumps(data))
    result = compare_golden(golden_path, cli._read_golden(golden_path))
    assert result["ok"] is False
    cfg = RunConfig(
        pipeline="su3-main", s_values=[Fraction(249, 1000)], golden=str(golden_path)
    )
    report, code = run(cfg)
    assert code == 1
    assert report["golden"]["ok"] is False


@pytest.mark.parametrize(
    "s, error, binding_checks",
    [(0.3, "ResonanceError: spectrum at s = 3/10 is not elliptic", 23), (0.5, "PoleError", 0), (1e300, "OverflowError", 0)],
)
def test_golden_s_the_chain_cannot_handle_is_recorded(tmp_path, capsys, s, error, binding_checks):
    """The report is written with the typed error in its golden section, exit 1, and no traceback."""
    dump_goldens(tmp_path)
    golden_path = tmp_path / "su3_chart_s249.json"
    data = json.loads(golden_path.read_text())
    data["s"] = s
    golden_path.write_text(json.dumps(data))
    out = tmp_path / "rep.json"
    code = cli.main(["--pipeline", "su3-main", "--s", "0.249", "--golden", str(golden_path), "--out", str(out)])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["rows"][0]["verdict"] is True
    golden = report["golden"]
    assert golden["ok"] is False and golden["error"].startswith(error)
    assert [c["binding"] for c in golden["checks"]] == [True] * binding_checks


def test_golden_reads_the_scans_row_that_is_not_elliptic(tmp_path, monkeypatch):
    """--s 0.3 with a golden file at s = 0.3: one row, one spectrum, and its tags give the golden error."""
    from charvar_kam import pipelines
    from charvar_kam.pipelines import su3_main_point

    dump_goldens(tmp_path)
    golden_path = tmp_path / "su3_chart_s249.json"
    data = json.loads(golden_path.read_text())
    data["s"] = 0.3
    golden_path.write_text(json.dumps(data))
    calls = []
    monkeypatch.setattr(cli, "su3_main_point", lambda *args: calls.append("row") or su3_main_point(*args))
    spectrum = pipelines.classify_spectrum
    monkeypatch.setattr(pipelines, "classify_spectrum", lambda m: calls.append("spectrum") or spectrum(m))
    out = tmp_path / "rep.json"
    assert cli.main(["--pipeline", "su3-main", "--s", "0.3", "--golden", str(golden_path), "--out", str(out)]) == 1
    assert calls == ["row", "spectrum"]
    report = json.loads(out.read_text())
    assert "alpha_det" not in report["rows"][0]
    assert report["golden"]["error"].startswith("ResonanceError: spectrum at s = 3/10 is not elliptic")


def test_main_requires_pipeline():
    res = run_cli(["--s", "0.1"])
    assert res.returncode == 2


# ------------------------------------------------------------------ streamed reports


def _collected_bytes(argv) -> tuple[bytes, int]:
    """What ``cli.run`` gives for ``argv``, written whole: the JSON of the report dict, or its CSV."""
    from oracles import report_csv

    flags = [a for a in argv if a == "--require-verdict"]
    rest = [a for a in argv if a not in flags]
    opts = dict(zip(rest[::2], rest[1::2]))
    cfg = RunConfig(
        pipeline=opts["--pipeline"],
        s_values=parse_s_values(opts.get("--s", "")),
        trunc_degree=int(opts.get("--degree", 3)),
        format=opts.get("--format", "json"),
        golden=opts.get("--golden"),
        require_verdict=bool(flags),
    )
    report, code = run(cfg)
    if cfg.format == "csv":
        return report_csv(report).encode(), code
    buf = io.StringIO()
    cli.dump_deterministic_json(report, buf)
    return (buf.getvalue() + "\n").encode(), code


_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def _reference_argv(name):
    config = json.loads((_REFERENCE / f"{name}.json").read_text())["report"]["config"]
    s_text = ",".join(repr(x) for x in config["s_values"])
    return ["--pipeline", config["pipeline"], "--s", s_text, "--degree", str(config["trunc_degree"])]


@pytest.mark.parametrize(
    "argv",
    [
        # su2-sweep's 1000 rows are checked once, against its stored hash, below
        *(_reference_argv(name) for name in ("su3-window", "su3-deep")),
        ["--pipeline", "su2-brown", "--s", ""],
        ["--pipeline", "su3-main", "--s", ""],
        ["--pipeline", "su2-brown", "--s", "0,0.1,0.9,1e-170,-0.3"],  # degenerate and error rows
        ["--pipeline", "su3-main", "--s", "0.2411,0.4,0,1e40,0.249"],  # hyperbolic, degenerate, overflowing
        ["--pipeline", "su2-brown", "--s", "0,0.1,0.9", "--format", "csv"],
        ["--pipeline", "su3-main", "--s", "0.2411,0.4,0,1e40", "--format", "csv", "--degree", "4"],
        ["--pipeline", "su3-main", "--s", "0.4", "--require-verdict"],
        ["--pipeline", "su2-brown", "--s", "0.9,0.95", "--require-verdict", "--format", "csv"],
        ["--pipeline", "su3-main", "--s", "0.249", "--golden", "GOLDEN"],
        ["--pipeline", "su3-main", "--s", "0.249", "--golden", "BAD-GOLDEN", "--format", "csv"],
    ],
    ids=lambda argv: " ".join(argv)[:60],
)
@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
def test_streamed_report_equals_the_collected_report(tmp_path, capsys, argv, to_file):
    """``cli.main`` writes, row by row, the bytes of the whole report that ``cli.run`` returns, and its exit code."""
    dump_goldens(tmp_path)
    bad = tmp_path / "bad.json"
    data = json.loads((tmp_path / "su3_chart_s249.json").read_text())
    data["t_jet"]["constant"] = -0.02
    bad.write_text(json.dumps(data))
    swap = {"GOLDEN": str(tmp_path / "su3_chart_s249.json"), "BAD-GOLDEN": str(bad)}
    argv = [swap.get(a, a) for a in argv]
    want, want_code = _collected_bytes(argv)
    out = tmp_path / "r.out"
    code = cli.main([*argv, "--out", str(out) if to_file else "-"])
    got = out.read_bytes() if to_file else capsys.readouterr().out.encode()
    assert got == want
    assert code == want_code
    if "--require-verdict" in argv:
        assert code == 3
    if str(bad) in argv:
        assert code == 1


#: The s values the streaming property draws from: good rows, degenerate, error and overflowing ones.
_STREAM_S = {
    "su2-brown": (["0", "0.1", "0.2", "0.3", "0.9", "1e-170", "1", "-0.3", "0.249"], 6),
    "su3-main": (["0.2411", "0.4", "0", "1e40", "0.249", "0.3"], 3),
}


@st.composite
def _stream_argvs(draw):
    pipeline = draw(st.sampled_from(sorted(_STREAM_S)))
    pool, most = _STREAM_S[pipeline]
    argv = ["--pipeline", pipeline, "--s", ",".join(draw(st.lists(st.sampled_from(pool), max_size=most)))]
    argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    return argv + ["--require-verdict"] * draw(st.booleans())


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(_stream_argvs())
def test_streamed_report_equals_the_collected_report_on_drawn_scans(tmp_path_factory, argv):
    """Over drawn scans that mix good and failing rows, ``cli.main`` writes the bytes and exit code of ``cli.run``."""
    out = tmp_path_factory.getbasetemp() / "drawn-scan.out"
    code = cli.main([*argv, "--out", str(out)])
    assert (out.read_bytes(), code) == _collected_bytes(argv)


def test_su3_csv_writes_twist_and_non_planarity_each_in_its_own_column():
    """A hand-made su3-main report whose rows differ in ``twist_ok`` and ``nonplanar_ok``: each flag keeps its column.

    No s of the drawn scans gives such a row, so a projection that wrote one flag for the other would pass them.
    """
    import csv

    from oracles import report_csv

    rows = [
        {"s": 0.2456, "ell": 1.25, "spec_class": ["elliptic"] * 3, "alpha_det": {"re": -3.5, "im": 0.25}},
        {"s": 0.2473, "ell": 1.5, "spec_class": ["elliptic"] * 3, "alpha_det": {"re": 2e-13, "im": -1e-14}},
    ]
    rows[0].update(twist_ok=True, nonplanar_ok=False, verdict=False)
    rows[1].update(twist_ok=False, nonplanar_ok=True, verdict=False, notes="twist below tolerance")
    report = {"schema": "kam-report/1", "pipeline": "su3-main", "config": {"s_values": [0.2456, 0.2473]}, "rows": rows}
    buf = io.StringIO()
    cli.write_report(report, RunConfig(pipeline="su3-main", format="csv"), buf)
    assert buf.getvalue() == report_csv(report)
    table = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert [(r["twist_ok"], r["nonplanar_ok"]) for r in table] == [("True", "False"), ("False", "True")]


def test_reference_reports_stream_to_their_stored_bytes(tmp_path):
    """The stored hashes are those of ``cli.run``'s reports written whole (tests/test_reference_reports.py)."""
    import hashlib

    for name in ("su3-window", "su3-deep", "su2-sweep"):
        out = tmp_path / f"{name}.json"
        assert cli.main([*_reference_argv(name), "--out", str(out)]) == 0
        stored = json.loads((_REFERENCE / f"{name}.json").read_text())["sha256"]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == stored, name


def _no_rows(monkeypatch):
    def fail(*args):
        raise AssertionError("a row ran")

    monkeypatch.setattr(cli, "su2_brown_point", fail)
    monkeypatch.setattr(cli, "su3_main_point", fail)


@pytest.mark.parametrize("where", ["missing directory", "directory", "file as directory", "read-only directory"])
def test_unwritable_out_is_a_config_error_before_any_row(tmp_path, monkeypatch, capsys, where):
    if where == "missing directory":
        out = tmp_path / "nonexistent" / "r.json"
    elif where == "directory":
        out = tmp_path
    elif where == "file as directory":
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "r.json"
    else:
        if os.geteuid() == 0:
            pytest.skip("permission bits do not bind root")
        locked = tmp_path / "locked"
        locked.mkdir(mode=0o500)
        out = locked / "r.json"
    _no_rows(monkeypatch)
    code = cli.main(["--pipeline", "su2-brown", "--s", "0.1,0.2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: cannot write --out {out}: ")
    assert "Traceback" not in err


def test_dump_goldens_onto_a_file_exits_2(tmp_path, capsys):
    """--dump-goldens naming an existing file is a config error that writes nothing, as for --out."""
    target = tmp_path / "taken"
    target.write_text("kept")
    code = cli.main(["--dump-goldens", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"config error: cannot write --dump-goldens {target}: ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == [target] and target.read_text() == "kept"


def test_unwritable_out_from_the_command_line_exits_2():
    res = run_cli(["--pipeline", "su2-brown", "--s", "0.1,0.2", "--out", "/nonexistent/dir/r.json"])
    assert res.returncode == 2
    assert res.stderr.startswith("config error: cannot write --out /nonexistent/dir/r.json: No such file or directory")
    assert res.stdout == ""


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_closed_pipe_ends_the_scan_without_a_traceback(fmt):
    """A reader that takes one line and closes the pipe (``| head -1``) ends the scan: exit 1, nothing on stderr."""
    argv = ["--pipeline", "su2-brown", "--s", "0.005:0.249:0.001", "--format", fmt]  # about 170 KB as JSON
    proc = subprocess.Popen(
        [sys.executable, "-m", "charvar_kam.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b""


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("existing", [None, b"an older report\n"])
def test_a_scan_that_dies_leaves_no_partial_report(tmp_path, monkeypatch, fmt, existing):
    """An exception outside SCAN_ERRORS on the third row: no new file, an older one unchanged, no temporary left."""
    from charvar_kam.pipelines import su2_brown_point

    out = tmp_path / "r.out"
    if existing is not None:
        out.write_bytes(existing)
    calls = []

    def third_fails(s, row=None):
        calls.append(s)
        if len(calls) == 3:
            raise RuntimeError("boom")
        return su2_brown_point(s, row)

    monkeypatch.setattr(cli, "su2_brown_point", third_fails)
    with pytest.raises(RuntimeError, match="boom"):
        cli.main(["--pipeline", "su2-brown", "--s", "0.1,0.15,0.2,0.25", "--format", fmt, "--out", str(out)])
    assert len(calls) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if existing is None else ["r.out"])
    if existing is not None:
        assert out.read_bytes() == existing


def test_report_file_keeps_the_mode_of_the_file_it_replaces(tmp_path):
    out = tmp_path / "r.json"
    out.write_text("old")
    out.chmod(0o640)
    assert cli.main(["--pipeline", "su2-brown", "--s", "0.1", "--out", str(out)]) == 0
    assert out.stat().st_mode & 0o777 == 0o640
    fresh = tmp_path / "new.json"
    umask = os.umask(0o027)
    try:
        assert cli.main(["--pipeline", "su2-brown", "--s", "0.1", "--out", str(fresh)]) == 0
    finally:
        os.umask(umask)
    assert fresh.stat().st_mode & 0o777 == 0o640
    assert json.loads(out.read_text()) == json.loads(fresh.read_text())


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_scan_memory_does_not_grow_with_the_number_of_rows(tmp_path, monkeypatch, fmt):
    """The peak Python allocation of ``cli.main`` from its first row on is the same for 200 and 2000 rows.

    ``tracemalloc`` counts Python allocations, not the resident set, so host
    noise does not enter.  The s values and the header, which lists every s,
    are built and written before the first row (about 230 bytes per s at
    their peak, by design), so the peak is taken above what is in use when
    the first row starts.  Rows are
    fresh copies of one real su2 row, and no batch is made, which keeps the
    test quick under tracemalloc; what keeps or drops rows is the scan loop
    and the writer.
    """
    import tracemalloc

    from charvar_kam.pipelines import su2_brown_point

    row_text = json.dumps(su2_brown_point(Fraction(1, 10)))

    def peak_above_start(n):
        base = []

        def row(s, row=None):
            if not base:
                tracemalloc.reset_peak()
                base.append(tracemalloc.get_traced_memory()[0])
            return {**json.loads(row_text), "s": float(s)}

        monkeypatch.setattr(cli, "su2_brown_point", row)
        monkeypatch.setattr(cli, "su2_rows", lambda s_values: itertools.repeat(None))
        argv = ["--pipeline", "su2-brown", "--s", f"0.0001:{n / 10000}:0.0001", "--format", fmt]
        tracemalloc.start()
        try:
            assert cli.main([*argv, "--out", str(tmp_path / "r.out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len((tmp_path / "r.out").read_text().splitlines()) > n
        return peak - base[0]

    small, large = peak_above_start(200), peak_above_start(2000)
    assert large - small < 256 * 1024, (small, large)
