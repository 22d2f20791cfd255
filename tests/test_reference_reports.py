"""Whole reports stay byte-identical to the benchmark's stored references.

Each ``perfbench/reference/*.json`` holds a report and the sha256 of the file
the CLI wrote for it.  The report's ``config`` is rebuilt (each s from the
shortest repr of its float, as the scan was given it), scanned again with
``cli.run``, written as ``write_report`` writes JSON, and hashed.
"""

import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from charvar_kam import cli

_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


@pytest.mark.parametrize("path", sorted(_REFERENCE.glob("*.json")), ids=lambda p: p.stem)
def test_report_bytes_equal_stored_reference(path):
    stored = json.loads(path.read_text())
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
    data = (buf.getvalue() + "\n").encode()
    assert hashlib.sha256(data).hexdigest() == stored["sha256"]
