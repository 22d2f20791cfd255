"""One benchmark sample: a fresh process that sets up charvar_kam and runs one CLI scan.

Usage (started by run.py, one process per sample)::

    python3 perfbench/child.py --degree D --trace 0|1 -- <charvar-kam arguments>

Without charvar-kam arguments the process only sets up.

Set-up imports the package and builds the lazily cached exact polynomials
(P, Q and the degree-D cat map), as the first row of any scan would.  The
scan is ``charvar_kam.cli.main(argv)``, timed in wall time and in CPU time
of the process and of any child processes it waited for.
The last line of standard output is one JSON object with the sample's
figures; with ``--trace 1`` it also holds the per-layer trace.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def cpu_s() -> float:
    """CPU time of this process (all threads) and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--degree", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import numpy

    from charvar_kam import cli, mcg, varieties

    tracer = None
    if args.trace:
        from tracer import Tracer, chart_cache_info, install_all

        tracer = Tracer()
        install_all(tracer)
    varieties.p_poly()
    varieties.q_poly()
    mcg.cat_map_su3_poly(args.degree)
    ready = time.monotonic()
    if not cli_args:
        print(json.dumps({"ready_monotonic": ready}))
        return 0

    if tracer is not None:
        tracer.set_phase("scan")
    cpu0 = cpu_s()
    t0 = time.perf_counter()
    code = cli.main(cli_args)
    scan_s = time.perf_counter() - t0
    scan_cpu_s = cpu_s() - cpu0

    n_rows = len(cli.parse_s_values(cli_args[cli_args.index("--s") + 1]))
    out = {
        "exit_code": code,
        "ready_monotonic": ready,
        "scan_s": scan_s,
        "scan_cpu_s": scan_cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "pool_width": cli._worker_count(n_rows),
    }
    if tracer is not None:
        out["restored"] = tracer.uninstall()
        out["trace"] = {
            "phases": tracer.phases,
            "counts": dict(tracer.counts),
            "row_s": tracer.row_s,
            "chart_cache": chart_cache_info(),
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
