"""Span tracer that wraps charvar_kam's entry points from outside the package.

Every wrapped callable is replaced at the place where callers look it up
(a module global such as ``pipelines.chart_map_jet``, or a class attribute
such as ``Jet.__mul__``), so nothing under ``src/`` changes.  Spans are
aggregated as they close: per name, the number of calls, the self time (span
duration minus the time covered by its child spans) and the inclusive time.
The tracer assumes one thread does the traced work at a time, which the
benchmark guarantees by running traced scans with ``CHARVAR_KAM_THREADS=1``.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter


class Tracer:
    """Aggregated spans and counts, split into a set-up phase and a scan phase."""

    def __init__(self):
        self.phases: dict[str, dict[str, list]] = {"setup": {}, "scan": {}}
        self.stats = self.phases["setup"]
        self.counts: Counter = Counter()
        self.row_s: list[float] = []
        self._stack: list[list[float]] = []
        self._installed: list[tuple[object, str, object]] = []

    def set_phase(self, phase: str):
        self.stats = self.phases[phase]

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dur
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dur - frame[0]
            st[2] += dur

    def spanned(self, name: str, fn):
        """``fn`` wrapped so that each call is a span called ``name``."""

        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def rows(self, name: str, fn):
        """Like :meth:`spanned`, also keeping each call's duration in ``row_s``."""

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return self.call(name, fn, *args, **kwargs)
            finally:
                self.row_s.append(perf_counter() - t0)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, owner, attr: str, wrapper):
        """Replace ``owner.attr`` by ``wrapper``, remembering the original."""
        self._installed.append((owner, attr, _own(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str):
        self.install(owner, attr, self.spanned(name, _own(owner, attr)))

    def uninstall(self) -> bool:
        """Put every original back; True when each name holds its original again."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        ok = all(_own(owner, attr) is original for owner, attr, original in self._installed)
        self._installed.clear()
        return ok


def _own(owner, attr: str):
    """``owner.attr`` as stored: a class's own dict entry, or a module global."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _kind(jet) -> str:
    for c in jet._coeffs.values():
        return "float" if isinstance(c, (float, complex)) else "exact"
    return "exact"


def _degree_histogram(jet) -> list[int]:
    hist = [0] * (jet.trunc_degree + 1)
    for e in jet._coeffs:
        hist[sum(e)] += 1
    return hist


def _jet_methods(tracer: Tracer, Jet):
    """Wrappers for the Jet methods whose cost depends on shape and coefficient kind.

    Span names are ``jets.<op>.<nv>x<td>.<kind>`` with the shape of the jet
    the method is called on (for ``compose``, the outer jet's variable count
    and the inner jets' truncation degree).  Kind is ``exact`` for
    int/Fraction/Gaussian-rational coefficients and ``float`` for
    float/complex ones; ``compose`` takes it from the inner jets.  Scalar
    products (a jet times a number) and products with the zero jet pass
    through untraced and count toward the caller's self time.  For jet-by-jet
    products the tracer also counts coefficient pairs visited and pairs kept
    under truncation.
    """
    mul = Jet.__dict__["__mul__"]
    compose = Jet.__dict__["compose"]
    substitute = Jet.__dict__["substitute_variable"]
    counts = tracer.counts

    def traced_mul(self, other):
        if not isinstance(other, Jet) or not (self._coeffs and other._coeffs):
            return mul(self, other)
        kind = _kind(self)
        name = f"jets.mul.{self.num_vars}x{self.trunc_degree}.{kind}"
        ha, hb = _degree_histogram(self), _degree_histogram(other)
        cum, run = [], 0
        for n in hb:
            run += n
            cum.append(run)
        counts[name + ".pairs_visited"] += len(self._coeffs) * len(other._coeffs)
        counts[name + ".pairs_kept"] += sum(n * cum[len(hb) - 1 - d] for d, n in enumerate(ha))
        return tracer.call(name, mul, self, other)

    def traced_compose(self, inner, allow_constant=False):
        inner = list(inner)
        name = f"jets.compose.{self.num_vars}x{inner[0].trunc_degree}.{_kind(inner[0])}"
        return tracer.call(name, compose, self, inner, allow_constant)

    def traced_substitute(self, var, replacement, var_map):
        name = f"jets.substitute_variable.{self.num_vars}x{self.trunc_degree}.{_kind(self)}"
        return tracer.call(name, substitute, self, var, replacement, var_map)

    return {"__mul__": traced_mul, "compose": traced_compose, "substitute_variable": traced_substitute}


def install_all(tracer: Tracer):
    """Wrap the public entry points of every layer a CLI scan goes through.

    ``poisson`` is on no CLI path and is left alone.
    """
    from charvar_kam import charts, cli, jets, mcg, pipelines, varieties

    # cli: rows are the per-s pipeline calls the scan makes
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "_scan", "cli._scan")
    tracer.wrap(cli, "write_report", "cli.write_report")
    for attr in ("su3_main_point", "su2_brown_point"):
        tracer.install(cli, attr, tracer.rows(f"pipelines.{attr}", getattr(cli, attr)))
    # pipelines: each stage as the pipelines module looks it up
    for attr, layer in (
        ("fixed_family_su3", "mcg"),
        ("fixed_family_su2", "mcg"),
        ("chart_map_jet", "charts"),
        ("su2_chart_map_jet", "charts"),
        ("chart_linear_matrix", "charts"),
        ("classify_spectrum", "spectral"),
        ("build_C0", "spectral"),
        ("diagonalized_jets", "birkhoff"),
        ("birkhoff_coefficients", "birkhoff"),
        ("alpha2_closed_form", "birkhoff"),
        ("nonresonance_check", "birkhoff"),
        ("nonplanarity_check", "birkhoff"),
        ("twist_determinant", "birkhoff"),
        ("brjuno_partial_sum", "birkhoff"),
        ("kappa_su2", "varieties"),
    ):
        tracer.wrap(pipelines, attr, f"{layer}.{attr}")
    # charts: the chart construction steps, looked up inside charts
    for attr in ("chart_spec", "_chart_map_jet_cached", "solve_t", "solve_z_implicit", "_translate", "_substituted_pq"):
        tracer.wrap(charts, attr, f"charts.{attr}")
    tracer.wrap(charts, "fixed_family_su2", "mcg.fixed_family_su2")
    tracer.wrap(charts, "fixed_family_su3", "mcg.fixed_family_su3")
    tracer.wrap(charts, "jet_sqrt", "jets.jet_sqrt")
    tracer.wrap(charts.ChartJet, "residual_h", "charts.ChartJet.residual_h")
    tracer.wrap(charts.ChartJet, "residual_level", "charts.ChartJet.residual_level")
    # exact polynomials: built in set-up, looked up again during the scan
    for owner in (varieties, charts):
        tracer.wrap(owner, "p_poly", "varieties.p_poly")
        tracer.wrap(owner, "q_poly", "varieties.q_poly")
    for owner in (mcg, charts):
        tracer.wrap(owner, "cat_map_su3_poly", "mcg.cat_map_su3_poly")
    # jets: the three operations the ROADMAP measures, by shape and kind
    for attr, wrapper in _jet_methods(tracer, jets.Jet).items():
        tracer.install(jets.Jet, attr, wrapper)


def chart_cache_info():
    from charvar_kam import charts

    info = charts._chart_cache.cache_info()
    return {"hits": info.hits, "misses": info.misses}

