"""Symbolic-numeric dynamics on SU(2)/SU(3) character varieties of the once-punctured torus.

Import each name from its module; this root re-exports none.  ``varieties``:
coordinates, polynomials and levels; ``mcg``: mapping classes and the cat-map
fixed families; ``jets``: truncated jets; ``charts``: charts at a fixed point
and the map's jets; ``spectral``: spectra and diagonalizing bases;
``birkhoff``: normal-form coefficients and the KAM checks; ``pipelines``: one
s in, one verdict row out; ``cli``: the ``charvar-kam`` scans and reports;
``poisson``: the SU(2) Poisson structure (no scan uses it); ``errors``.
"""

__version__ = "0.1.0"
