"""Batch front-end: scan the fixed families over s-grids and emit verdict reports.

Reports are deterministic: rows run one after another in input order, dict
keys are fixed, and floats print with 17 significant digits so identical
configs produce byte-identical JSON.  Each row is written as soon as it is
read, and no row is kept after that.  An su2 scan reads its rows from
``pipelines.su2_rows``: the stages of up to ``pipelines.SU2_LANES`` rows are
made together when the first of them is read, and held until those rows
are written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import json
import math
import os
import re
import stat
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import GeneratorType

from .charts import chart_map_jet
from .mcg import fixed_family_su3
from .pipelines import SCAN_ERRORS, error_text, su2_brown_point, su2_rows, su3_main_point

__all__ = ["RunConfig", "run", "dump_goldens", "main"]

SCHEMA = "kam-report/1"

#: Most s values one --s may ask for; checked before any s value is built.
#: The s values and the header's s list are held for the whole scan, about
#: 230 bytes per s, so a full grid takes 23 MB before its first row; the
#: largest grid the README, tests and benchmark run has 12,201 s.
MAX_S_VALUES = 10**5

#: Most decimal digits an s or a range step may have: in its text, in its
#: text's exponent, and in its exact numerator and denominator.  A text is
#: checked before its Fraction is built, which for ``1e-10000000`` alone
#: takes seconds, and a row's exact arithmetic grows with these digits (an
#: su3 row at s = 1e-1999 takes about 1.6 s, against 5 ms at 0.24).  The
#: exact value of a double needs about 1077 bits (its exact decimal text up
#: to 1075 digits), so the cap leaves every useful s alone, and no message
#: formats an integer past CPython's 4300-digit limit.
MAX_S_DIGITS = 2000
_S_DIGITS_LIMIT = 10**MAX_S_DIGITS  # the least integer of more than MAX_S_DIGITS digits

#: Highest chart truncation degree; checked before any chart is built.  One
#: su3 row costs about 1.2 s and 44 MB at degree 8, and 33 s and 152 MB at 12.
MAX_DEGREE = 8

# The golden comparison's thresholds (the README's threshold table).
GOLDEN_REL_TOL = 1e-3  #: the relative error a binding golden check allows (6 printed digits)
GOLDEN_DET_MIN = 1e-3  #: |det alpha| above this passes the golden file's alpha_det diagnostic
GOLDEN_REL_FLOOR = 1e-30  #: a golden check divides its error by max(|want|, this)

#: Reference values as printed in the source write-up (6 significant digits).
#: Printed degree-k jet terms carry k! times the polynomial coefficient; the
#: "exps" below index the displacement variables (x, X, y, Y, z, Z, T) for t
#: and (x, X, y, Y, Z, T) for z.
_GOLDEN_SOURCE = "published reference values, 6 significant digits"

_T_JET_GOLDEN = {
    "constant": -0.0158728,
    "terms": [
        {"exps": [0, 0, 0, 0, 0, 0, 2], "printed": 35.9596},
        {"exps": [1, 0, 0, 0, 0, 0, 0], "printed": -27.4865},
        {"exps": [0, 0, 1, 0, 0, 0, 0], "printed": -21.6578},
        {"exps": [0, 0, 0, 0, 1, 0, 0], "printed": -27.4707},
        {"exps": [0, 1, 0, 0, 0, 0, 1], "printed": 1.14156},
        {"exps": [0, 2, 0, 0, 0, 0, 0], "printed": 35.9686},
        {"exps": [0, 0, 0, 1, 0, 0, 1], "printed": -54.0829},
        {"exps": [0, 1, 0, 1, 0, 0, 0], "printed": -52.9413},
        {"exps": [0, 0, 0, 2, 0, 0, 0], "printed": 56.2946},
        {"exps": [0, 0, 0, 0, 0, 2, 0], "printed": 35.9596},
        {"exps": [2, 0, 0, 0, 0, 0, 0], "printed": 27172.4},
        {"exps": [3, 0, 0, 0, 0, 0, 0], "printed": -80525300.0},
        {"exps": [1, 0, 0, 0, 0, 0, 2], "printed": -106566.0},
    ],
}

_Z_JET_GOLDEN = {
    # printed constant keeps a raw "-x" term: it equals (value at center) + x0
    "constant_printed": -1.50399,
    "value_at_center": -0.751996,
    "terms": [
        {"exps": [0, 0, 0, 0, 0, 2], "printed": 1.28663},
        {"exps": [1, 0, 0, 0, 0, 0], "printed": -1.0},
        {"exps": [0, 2, 0, 0, 0, 0], "printed": 1.22118},
        {"exps": [0, 0, 0, 0, 2, 0], "printed": 1.22016},
        {"exps": [0, 0, 1, 0, 0, 0], "printed": -0.751996},
        {"exps": [3, 0, 0, 0, 0, 0], "printed": -10.7239},
        {"exps": [0, 0, 0, 1, 0, 1], "printed": -1.93507},
    ],
}

_ALPHA_GOLDEN = {
    "binding": False,
    "note": "entrywise alpha values depend on the eigenvector normalization, "
    "which the reference does not document; kept as a diagnostic only",
    "matrix": [
        [
            {"re": 0.00552244, "im": -0.0340402},
            {"re": 0.0107941, "im": -0.000895037},
            {"re": 1.27133, "im": 2.0689},
        ],
        [
            {"re": -0.200044, "im": -0.525768},
            {"re": -0.327311, "im": -0.329913},
            {"re": -0.800469, "im": -0.841658},
        ],
        [
            {"re": -4.01094, "im": -2.67688},
            {"re": -8.79221, "im": -8.77867},
            {"re": 250.545, "im": 281.496},
        ],
    ],
    "det": {"re": -20.077, "im": -0.73655},
}

_LEVEL_GOLDEN = {
    "source": _GOLDEN_SOURCE,
    "numerator_octic_coefficients": [3, -24, 24, 192, -448, 64, 704, -768, 256],
    "denominator": "(1 - 2 s)^4",
    "special_values": [
        {"s": 0.0, "ell": 3.0},
        {"s": 0.249, "ell": -0.9250133569004855},
    ],
    "tangency_endpoints": [-0.5405094983123035, 0.25973309190781035],
}


@dataclass
class RunConfig:
    """Scan configuration; s values must avoid the pole s = 1/2 and fit a double."""

    pipeline: str
    s_values: list = field(default_factory=list)
    trunc_degree: int = 3
    output: str = "-"
    format: str = "json"
    golden: str | None = None
    require_verdict: bool = False
    dump_jets: bool = False
    golden_values: dict | None = field(default=None, init=False, repr=False)  # the golden file, read once

    def __post_init__(self):
        if self.pipeline not in ("su2-brown", "su3-main"):
            raise ValueError(f"unknown pipeline {self.pipeline!r}")
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown format {self.format!r}")
        if self.trunc_degree < 3:
            # alpha_jk are degree-3 coefficients: a lower chart has no twist to report
            raise ValueError("truncation degree must be at least 3")
        if self.trunc_degree > MAX_DEGREE:
            raise ValueError(f"truncation degree {self.trunc_degree} is above the cap of {MAX_DEGREE}")
        for s in self.s_values:
            if s == Fraction(1, 2):
                raise ValueError("s = 1/2 is a pole of the fixed family")
            _in_double_range(s)
        if self.golden and self.pipeline == "su3-main":
            self.golden_values = _read_golden(self.golden)  # a bad file fails here, before any row runs


def parse_s_values(text: str) -> list:
    """Parse '0.239,0.24' or '0.239:0.249:0.002' into exact Fractions (at most MAX_S_VALUES).

    Each s must fit a double, since the report prints it as one; for a range
    its start and stop are checked.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range syntax is start:stop:step")
        start, stop, step = _in_double_range(parts[0]), _in_double_range(parts[1]), _exact(parts[2], "range step")
        if step <= 0:
            raise ValueError("range step must be positive")
        count = max(0, (stop - start) // step + 1)
        _check_count(count)
        return [start + k * step for k in range(count)]
    parts = [p for p in text.split(",") if p.strip()]
    _check_count(len(parts))
    return [_in_double_range(p) for p in parts]


def _in_double_range(value) -> Fraction:
    """``_exact(value)``, or a ValueError naming it unless it fits a double, as the report prints s."""
    s = _exact(value)
    try:
        float(s)
    except OverflowError:
        raise ValueError(f"s = {_shown(str(value).strip())} is outside the double range") from None
    return s


def _exact(value, name: str = "s") -> Fraction:
    """``Fraction(value)``, or a ValueError naming it when it is past ``MAX_S_DIGITS``.

    A text's digits and exponent are checked before the Fraction is built,
    and the Fraction's numerator and denominator after.
    """
    text = value.strip() if isinstance(value, str) else ""
    exponent = re.search(r"e([-+]?\d+(?:_\d+)*)$", text, re.IGNORECASE)
    if sum(map(str.isdigit, text)) <= MAX_S_DIGITS and not (exponent and abs(int(exponent[1])) > MAX_S_DIGITS):
        s = Fraction(value)
        if max(abs(s.numerator), s.denominator) < _S_DIGITS_LIMIT:
            return s
    shown = f"{name} = {_shown(text)}" if text else name
    raise ValueError(f"{shown} is past the cap of {MAX_S_DIGITS} digits")


def _shown(text: str) -> str:  # a config error names a long s by its first 37 characters
    return text if len(text) <= 40 else text[:37] + "..."


def _check_count(count: int):
    if count > MAX_S_VALUES:
        asked = count if count < 10**9 else "over 10^9"  # a range of tiny steps counts thousands of digits
        raise ValueError(f"{asked} s values requested, more than the cap of {MAX_S_VALUES}")


#: The JSON string of a str (what ``json.dumps`` gives for one, without its set-up).
_json_escape = json.encoder.encode_basestring_ascii

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _format_float(x: float) -> str:
    text = format(x, ".17g")
    return _NON_FINITE.get(text, text)


def dump_deterministic_json(obj, out: io.TextIOBase, indent: int = 0):
    """Write ``obj`` to ``out`` as JSON text, in one ``write``, byte-deterministically.

    The format: a non-empty dict or list (a tuple too) opens its bracket, puts
    each item on its own line indented two spaces per level (``indent`` is
    the level of ``obj`` itself), separates items with ``,`` at the line end
    and closes on a line of its own; an empty one is ``{}`` or ``[]``.  Dict
    items keep insertion order, each key as the JSON string of ``str(key)``
    followed by ``": "``.  ``true``/``false`` for bools, ``str`` for other
    ints, floats at 17 significant digits (``.17g``) with ``NaN``,
    ``Infinity`` and ``-Infinity``, ``null`` for None, and any other value as
    the ASCII JSON string of its ``str``.
    """
    parts: list[str] = []
    _put_json(obj, indent, parts.append, {})
    out.write("".join(parts))


#: The text of the leaves most reports are made of, by exact type (as ``_put_json`` writes them).
_LEAF_TEXT = {float: _format_float, str: _json_escape}


def _put_json(obj, depth: int, emit, keys: dict):
    """Append the pieces of ``obj``'s JSON text at nesting ``depth``; ``keys`` caches escaped keys.

    Containers go through :func:`_put_items`.  A generator is written as the
    list of what it yields, read one item at a time: that is how a scan's
    rows reach the writer.
    """
    if isinstance(obj, dict):
        _put_items(obj.items(), depth, emit, keys)
    elif isinstance(obj, (list, tuple, GeneratorType)):
        _put_items(obj, depth, emit, keys, "[]")
    elif isinstance(obj, bool):
        emit("true" if obj else "false")
    elif isinstance(obj, int):
        emit(str(obj))
    elif isinstance(obj, float):
        emit(_format_float(obj))
    elif obj is None:
        emit("null")
    else:
        emit(_json_escape(str(obj)))


def _put_items(items, depth: int, emit, keys: dict, brackets: str = "{}"):
    """Append the JSON text of a dict with these ``(key, value)`` items or, with ``"[]"``, of a list of these values.

    Values whose exact type has an entry in ``_LEAF_TEXT`` are written in
    place, anything else (containers, subclasses) through :func:`_put_json`.
    """
    leaf_text = _LEAF_TEXT.get
    keyed = brackets == "{}"
    pad = "  " * (depth + 1)
    opener = first = brackets[0] + "\n" + pad
    sep = ",\n" + pad
    for v in items:
        emit(opener)
        if keyed:
            k, v = v
            text = str(k)
            key = keys.get(text)
            if key is None:
                key = keys[text] = _json_escape(text) + ": "
            emit(key)
        leaf = leaf_text(type(v))
        if leaf is None:
            _put_json(v, depth + 1, emit, keys)
        else:
            emit(leaf(v))
        opener = sep
    emit(brackets if opener is first else "\n" + "  " * depth + brackets[1])


def _worker_count(n_jobs: int) -> int:
    return 1  # scans are serial; the benchmark in perfbench/ records this as its pool width


def _scan(fn, *columns):
    """The rows ``fn(s, ...)``, one per item of the columns, each made when it is read."""
    return map(fn, *columns)


class _Scan:
    """One scan's report as a stream, with what its exit code needs once the stream is read.

    :meth:`items` yields the report's top-level items in order; the rows are
    made one at a time as they are read, and ``verdict_found`` is computed
    once the rows are used up.  With ``--golden`` on su3-main, ``golden`` is
    computed from the degree-3 row at the golden file's s right after it is
    made, while the chart cache holds its chart, or else once the rows are
    used up.  Each item must be read in full before the next.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.verdict_found = False
        self.golden = None
        # a row whose chart and alpha_det the golden comparison takes: at the file's s, with the golden chart's degree 3
        self.golden_s = Fraction(str(cfg.golden_values["s"])) if cfg.golden_values and cfg.trunc_degree == 3 else None

    def items(self):
        cfg = self.cfg
        yield "schema", SCHEMA
        yield "pipeline", cfg.pipeline
        yield "config", _config_dict(cfg)
        if cfg.pipeline == "su2-brown":
            rows = _scan(su2_brown_point, cfg.s_values, su2_rows(cfg.s_values))
            yield "rows", self._watched(rows, lambda r: r.get("spec_class") == "elliptic" and r.get("twist_ok"))
        else:
            rows = _scan(lambda s: su3_main_point(s, cfg.trunc_degree, cfg.dump_jets), cfg.s_values)
            yield "rows", self._watched(rows, lambda r: r.get("verdict"))
        yield "verdict_found", self.verdict_found
        if cfg.golden and cfg.pipeline == "su3-main":
            if self.golden is None:
                self.golden = compare_golden(Path(cfg.golden), cfg.golden_values)
            yield "golden", self.golden

    def _watched(self, rows, hit):
        for s, row in zip(self.cfg.s_values, rows):
            if not self.verdict_found and hit(row):
                self.verdict_found = True
            if self.golden is None and s == self.golden_s:
                # now, while the chart cache still holds this row's chart
                self.golden = compare_golden(Path(self.cfg.golden), self.cfg.golden_values, row)
            yield row

    def exit_code(self) -> int:
        """3 if --require-verdict finds no verdict in a non-empty scan, else 1 if the golden check fails, else 0."""
        if self.cfg.require_verdict and self.cfg.s_values and not self.verdict_found:
            return 3
        return 1 if self.golden is not None and not self.golden["ok"] else 0


def run(cfg: RunConfig) -> tuple[dict, int]:
    """Scan cfg.s_values through cfg.pipeline and return (report, exit code).

    Verdict: su2-brown needs some s with elliptic multiplier and alpha2 != 0;
    su3-main needs some s with nonzero twist determinant, non-planarity and no
    resonance.  ``--golden`` applies to su3-main only.  The report is the
    stream the CLI writes, collected into a dict.
    """
    scan = _Scan(cfg)
    report = {key: list(value) if key == "rows" else value for key, value in scan.items()}
    return report, scan.exit_code()


def _config_dict(cfg: RunConfig) -> dict:
    return {
        "pipeline": cfg.pipeline,
        "s_values": [float(s) for s in cfg.s_values],
        # an su2 row always charts at degree 3 (``su2_chart_map_jet``'s default): --degree is ignored there
        "trunc_degree": 3 if cfg.pipeline == "su2-brown" else cfg.trunc_degree,
        "format": cfg.format,
    }


def dump_goldens(outdir) -> list:
    """Write the reference-value files used by golden comparisons."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    chart = {
        "source": _GOLDEN_SOURCE,
        "s": 0.249,
        "normalization": "printed degree-k terms are k! times the polynomial coefficient",
        "fixed_point_shifts": {"x": 0.751996, "y": 0.0158728},
        "t_jet": _T_JET_GOLDEN,
        "z_jet": _Z_JET_GOLDEN,
        "alpha": _ALPHA_GOLDEN,
    }
    paths = []
    for name, payload in (("su3_chart_s249.json", chart), ("level_function.json", _LEVEL_GOLDEN)):
        path = outdir / name
        buf = io.StringIO()
        dump_deterministic_json(payload, buf)
        path.write_text(buf.getvalue() + "\n")
        paths.append(path)
    return paths


#: Values compare_golden reads: numbers by key path, and the term lists of
#: each jet with its number of variables.
_GOLDEN_NUMBERS = (
    ("s",),
    ("fixed_point_shifts", "x"),
    ("t_jet", "constant"),
    ("z_jet", "value_at_center"),
    ("z_jet", "constant_printed"),
    ("alpha", "det", "re"),
    ("alpha", "det", "im"),
)
_GOLDEN_TERMS = (("t_jet", 7), ("z_jet", 6))


def _read_golden(path) -> dict:
    """The golden file at ``path``, checked to hold every value :func:`compare_golden` reads.

    Raises ValueError naming the first missing or malformed value.
    """
    try:
        golden = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"golden file {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ValueError(f"golden file {path} is not JSON: {exc}") from None

    def value_at(keys):
        value = golden
        for depth, key in enumerate(keys):
            if not isinstance(value, dict) or key not in value:
                raise ValueError(f"golden file {path}: {'.'.join(keys[: depth + 1])} is missing")
            value = value[key]
        return value

    def is_number(value):
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    for keys in _GOLDEN_NUMBERS:
        if not is_number(value_at(keys)):
            raise ValueError(f"golden file {path}: {'.'.join(keys)} is not a number")
    if not math.isfinite(golden["s"]):
        raise ValueError(f"golden file {path}: s is not finite")
    for name, num_vars in _GOLDEN_TERMS:
        terms = value_at((name, "terms"))
        if not isinstance(terms, list):
            raise ValueError(f"golden file {path}: {name}.terms is not a list")
        for i, term in enumerate(terms):
            exps = term.get("exps") if isinstance(term, dict) else None
            if not (
                isinstance(exps, list)
                and len(exps) == num_vars
                and all(type(e) is int and e >= 0 for e in exps)
            ):
                raise ValueError(
                    f"golden file {path}: {name}.terms[{i}].exps is not a list of "
                    f"{num_vars} non-negative integers"
                )
            if not is_number(term.get("printed")):
                raise ValueError(f"golden file {path}: {name}.terms[{i}].printed is not a number")
    return golden


def compare_golden(path: Path, golden: dict, row: dict | None = None) -> dict:
    """Compare the computed s = .249 chart against ``golden = _read_golden(path)``.

    Jet coefficients are binding at GOLDEN_REL_TOL.  alpha_det is a
    diagnostic, as it depends on the eigenvector normalization: it is read
    from ``row``, the scan's degree-3 ``su3_main_point`` row at the file's s,
    or from one made here when the scan has none.  A scan error at that s (a
    pole, a spectrum that is not elliptic, values too large for a double) is
    recorded as ``error`` with ``ok`` false, after the checks.
    """
    s = Fraction(str(golden["s"]))
    checks = []
    result = {"file": str(path), "rel_tol": GOLDEN_REL_TOL, "ok": False, "checks": checks}

    def check(name, got, want, binding=True):
        rel = abs(got - want) / max(abs(want), GOLDEN_REL_FLOOR)
        checks.append(
            {"name": name, "got": float(got), "want": float(want), "rel_err": rel,
             "binding": binding, "ok": rel <= GOLDEN_REL_TOL}
        )

    try:
        chart = chart_map_jet(fixed_family_su3(s))
    except SCAN_ERRORS as exc:
        result["error"] = error_text(exc)
        return result
    z0 = chart.z_jet.constant_term()
    # each jet's constants, by golden key, then its terms; the printed z constant keeps a raw "-x" term
    for name, jet, constants in (
        ("t_jet", chart.t_jet, {"constant": chart.t_jet.constant_term()}),
        ("z_jet", chart.z_jet, {"value_at_center": z0, "constant_printed": z0 - golden["fixed_point_shifts"]["x"]}),
    ):
        for key, got in constants.items():
            check(f"{name}.{key}", got, golden[name][key])
        for term in golden[name]["terms"]:
            e = tuple(term["exps"])
            got = jet.coefficient(e) * math.factorial(sum(e))
            check(f"{name}[{','.join(map(str, e))}]", got, term["printed"])
    # diagnostic only: normalization-dependent
    if row is None:
        row = su3_main_point(s)
    if "alpha_det" not in row:
        spectrum = tuple(row.get("spec_class", ()))
        result["error"] = row.get("error") or f"ResonanceError: spectrum at s = {s} is not elliptic: {spectrum}"
        return result
    det = complex(row["alpha_det"]["re"], row["alpha_det"]["im"])
    want_det = complex(golden["alpha"]["det"]["re"], golden["alpha"]["det"]["im"])
    checks.append(
        {
            "name": "alpha_det (diagnostic)",
            "got": [det.real, det.imag],
            "want": [want_det.real, want_det.imag],
            "rel_err": abs(det - want_det) / max(abs(want_det), GOLDEN_REL_FLOOR),
            "binding": False,
            "ok": abs(det) > GOLDEN_DET_MIN,
        }
    )
    result["ok"] = all(c["ok"] for c in checks if c["binding"])
    return result


def write_report(report, cfg: RunConfig, stream):
    """Write ``report`` to the text ``stream`` in ``cfg.format``: the header, then one ``write`` per row.

    ``report`` is a report dict or a :class:`_Scan`; each row is written as
    soon as it is read and is not kept.  JSON is the text of
    ``dump_deterministic_json(report)`` and a newline; CSV is one header
    line and one line per row.
    """
    if cfg.format == "csv":
        _write_csv(report, cfg.pipeline, stream)
        return
    parts: list[str] = []

    def flush():
        stream.write("".join(parts))
        parts.clear()

    def written(rows):
        flush()  # the header, before the first row is made
        for row in rows:
            yield row
            flush()

    items = ((key, written(value) if key == "rows" else value) for key, value in report.items())
    _put_items(items, 0, parts.append, {})
    parts.append("\n")
    flush()


_CSV_COLUMNS = ["s", "ell", "spec_class", "alpha_det_re", "alpha_det_im", "twist_ok", "nonplanar_ok", "notes"]


def _write_csv(report, pipeline: str, stream):
    """The CSV header and then each row's line, one ``write`` each; the other items are read and not written."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for key, value in report.items():
        if key == "rows":
            writer.writerows(_csv_row(pipeline, row) for row in value)


def _csv_row(pipeline: str, row: dict) -> list:
    su2 = pipeline == "su2-brown"
    alpha = row.get("alpha2" if su2 else "alpha_det", {})
    spec_class = row.get("spec_class", "")
    twist = row.get("twist_ok", "")
    nonplanar = twist if su2 else row.get("nonplanar_ok", "")  # d = 1: the frequency map is non-planar iff it twists
    notes = row.get("error") or row.get("notes") or ""
    return [
        _format_float(row["s"]),
        _format_float(row["ell"]) if "ell" in row else "",
        spec_class if su2 else ";".join(spec_class),
        _format_float(alpha["re"]) if alpha else "",
        _format_float(alpha["im"]) if alpha else "",
        twist,
        nonplanar,
        notes,
    ]


class _ReportFile:
    """The file ``--out`` names, written through a temporary file next to it.

    Opening raises ValueError, before any row runs, when the path cannot be
    written: a missing directory, no permission, a directory.  On a clean
    exit of the ``with`` block the temporary file replaces the path (keeping
    an existing file's mode); on an exception it is removed, so a scan that
    dies part way leaves no partial report and an older file as it was.  A
    path that exists and is not a regular file, such as ``/dev/stdout``, is
    written directly.
    """

    def __init__(self, path: str):
        self.temp = None
        st = os.stat(path) if os.path.exists(path) else None  # False on any error, which mkstemp then names
        try:
            if st is not None and not stat.S_ISREG(st.st_mode):
                self.stream = open(path, "w")  # a directory raises here
                return
            self.target = os.path.realpath(path)
            if st is not None and not os.access(self.target, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
            folder, name = os.path.split(self.target)
            fd, self.temp = tempfile.mkstemp(dir=folder, prefix=f".{name}.", suffix=".tmp")
        except OSError as exc:
            raise ValueError(f"cannot write --out {path}: {exc.strerror or exc}") from None
        if st is not None:
            mode = stat.S_IMODE(st.st_mode)
        else:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.fchmod(fd, mode)
        self.stream = open(fd, "w")

    def __enter__(self):
        return self.stream

    def __exit__(self, exc_type, *_):
        try:
            self.stream.close()
            if exc_type is None and self.temp is not None:
                os.replace(self.temp, self.target)
                self.temp = None
        finally:
            if self.temp is not None:
                os.unlink(self.temp)


def _join_negative_s(argv) -> list[str]:
    """``argv`` with ``--s`` joined to a next token like ``-1:0.49:0.01`` as ``--s=-1:0.49:0.01``.

    argparse takes a token that starts with '-' for an option unless it is a
    plain negative number, so a list or range with a negative start would
    leave ``--s`` without a value.
    """
    out = []
    for tok in argv:
        if out and out[-1] == "--s" and re.match(r"-[0-9.]", tok):
            out[-1] = f"--s={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="charvar-kam",
        description="Scan cat-map fixed points on SU(2)/SU(3) character varieties "
        "and check KAM twist/non-planarity criteria.",
    )
    parser.add_argument("--pipeline", choices=["su2-brown", "su3-main"], help="which scan to run")
    parser.add_argument("--s", dest="s_text", default="", help="comma list '0.239,0.24' or range 'start:stop:step'")
    parser.add_argument("--degree", type=int, default=3, help=f"chart jet truncation degree (default 3, from 3 to {MAX_DEGREE})")
    parser.add_argument("--out", default="-", help="output path ('-' = stdout)")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--golden", default=None, help="golden file to compare against (su3-main)")
    parser.add_argument("--require-verdict", action="store_true", help="exit 3 unless some s passes the KAM criteria")
    parser.add_argument("--dump-jets", action="store_true", help="embed chart jets in each su3 row")
    parser.add_argument("--dump-goldens", default=None, metavar="DIR", help="write golden files to DIR and exit")
    args = parser.parse_args(_join_negative_s(sys.argv[1:] if argv is None else argv))

    if args.dump_goldens:
        try:
            paths = dump_goldens(args.dump_goldens)
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"config error: cannot write --dump-goldens {args.dump_goldens}: {reason}", file=sys.stderr)
            return 2
        for path in paths:
            print(path)
        return 0
    if not args.pipeline:
        parser.error("--pipeline is required (or use --dump-goldens)")
    try:
        cfg = RunConfig(
            pipeline=args.pipeline,
            s_values=parse_s_values(args.s_text),
            trunc_degree=args.degree,
            output=args.out,
            format=args.format,
            golden=args.golden,
            require_verdict=args.require_verdict,
            dump_jets=args.dump_jets,
        )
        out = contextlib.nullcontext(sys.stdout) if cfg.output == "-" else _ReportFile(cfg.output)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    scan = _Scan(cfg)
    try:
        with out as stream:
            write_report(scan, cfg, stream)
            stream.flush()
    except BrokenPipeError:
        # the reader is gone, so the scan stops; the interpreter flushes stdout
        # again at exit, so point it at devnull (the Python ``signal`` docs' recipe)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return scan.exit_code()


if __name__ == "__main__":
    sys.exit(main())
