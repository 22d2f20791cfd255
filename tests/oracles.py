"""Shared test oracles.

The full functional-equation residual of a normal form: given a diagonalized
degree-3 map, solve for the cubic corrections at every non-resonant monomial
and check that phi(u xi, v eta) - p(phi, psi) vanishes identically through
degree 3 (and the psi/q analogue).  This exercises the defining property of
the alpha/beta coefficients independently of how they were extracted.

Reference loops for truncated jet products and one-variable substitutions:
they visit every coefficient pair and skip those above the truncation degree,
so they fix which contributions each result key receives and in what order.
"""

import numpy as np

from charvar_kam.birkhoff import alpha_matrix, phi2_psi2
from charvar_kam.jets import Jet, jet_variables


def _eig_product(lam, mu, e):
    d = len(lam)
    out = 1.0 + 0.0j
    for i in range(d):
        out *= lam[i] ** e[i] * mu[i] ** e[d + i]
    return out


def _resonant_slot(e, own, partner_block, d, n):
    """True when e is the structurally resonant monomial for component `own`."""
    for k in range(d):
        want = [0] * n
        want[own if partner_block == "xi" else d + own] += 1
        want[k] += 1
        want[d + k] += 1
        if tuple(want) == e:
            return True
    return False


def solve_order3(nf, corrected):
    """Cubic corrections phi_3, psi_3 at all non-resonant monomials (others 0)."""
    d, n = nf.d, 2 * nf.d
    phi3, psi3 = [], []
    for j in range(d):
        rhs = nf.p_jets[j].compose(corrected).homogeneous_part(3)
        coeffs = {}
        for e, c in rhs.coeffs.items():
            if _resonant_slot(e, j, "xi", d, n):
                continue
            coeffs[e] = c / (_eig_product(nf.lam, nf.mu, e) - nf.lam[j])
        phi3.append(Jet(n, 3, coeffs))
    for j in range(d):
        rhs = nf.q_jets[j].compose(corrected).homogeneous_part(3)
        coeffs = {}
        for e, c in rhs.coeffs.items():
            if _resonant_slot(e, j, "eta", d, n):
                continue
            coeffs[e] = c / (_eig_product(nf.lam, nf.mu, e) - nf.mu[j])
        psi3.append(Jet(n, 3, coeffs))
    return phi3, psi3


def functional_equation_residual(nf):
    """Max residual coefficient through degree 3 of both functional equations."""
    d, n = nf.d, 2 * nf.d
    phi2, psi2 = phi2_psi2(nf)
    zeta = jet_variables(n, 3, coeff_one=1.0 + 0.0j)
    corrected = [zeta[i] + (phi2[i] if i < d else psi2[i - d]) for i in range(n)]
    alpha = alpha_matrix(nf, phi2, psi2)
    beta = np.zeros((d, d), dtype=complex)
    for j in range(d):
        comp = nf.q_jets[j].compose(corrected)
        for k in range(d):
            e = [0] * n
            e[d + j] += 1
            e[k] += 1
            e[d + k] += 1
            beta[j, k] = complex(comp.coefficient(tuple(e)))
    phi3, psi3 = solve_order3(nf, corrected)
    W = []
    for i in range(d):
        u_xi = zeta[i] * nf.lam[i]
        for k in range(d):
            u_xi = u_xi + zeta[i] * zeta[k] * zeta[d + k] * alpha[i, k]
        W.append(u_xi)
    for i in range(d):
        v_eta = zeta[d + i] * nf.mu[i]
        for k in range(d):
            v_eta = v_eta + zeta[d + i] * zeta[k] * zeta[d + k] * beta[i, k]
        W.append(v_eta)
    full_inner = [corrected[i] + (phi3[i] if i < d else psi3[i - d]) for i in range(n)]
    worst = 0.0
    for j in range(d):
        phi_full = zeta[j] + phi2[j] + phi3[j]
        worst = max(
            worst,
            max(
                (abs(c) for c in (phi_full.compose(W) - nf.p_jets[j].compose(full_inner)).coeffs.values()),
                default=0.0,
            ),
        )
        psi_full = zeta[d + j] + psi2[j] + psi3[j]
        worst = max(
            worst,
            max(
                (abs(c) for c in (psi_full.compose(W) - nf.q_jets[j].compose(full_inner)).coeffs.values()),
                default=0.0,
            ),
        )
    return worst


def mul_items(a, b):
    """Items of the truncated product a * b, from a scan over every pair."""
    td = a.trunc_degree
    out = {}
    a_items = [(e, sum(e), c) for e, c in a._coeffs.items()]
    b_items = [(e, sum(e), c) for e, c in b._coeffs.items()]
    for ea, da, ca in a_items:
        room = td - da
        for eb, db, cb in b_items:
            if db > room:
                continue
            key = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(key, 0) + ca * cb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return list(out.items())


def substitute_variable_items(jet, var, replacement, var_map):
    """Items of jet.substitute_variable(var, replacement, var_map), from a scan over every pair."""
    nv_t, td = replacement.num_vars, replacement.trunc_degree
    powers = {1: replacement}

    def power(k):
        got = powers.get(k)
        if got is None:
            got = power(k - 1) * replacement
            powers[k] = got
        return got

    out = {}
    for e, c in jet._coeffs.items():
        k = e[var]
        rest_deg = sum(e) - k
        if rest_deg + k > td:
            continue
        te = [0] * nv_t
        for i, ei in enumerate(e):
            if i != var and ei:
                te[var_map[i]] += ei
        if k == 0:
            key = tuple(te)
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
            continue
        for pe, pc in power(k)._coeffs.items():
            if sum(pe) + rest_deg > td:
                continue
            key = tuple(a + b for a, b in zip(pe, te))
            s = out.get(key, 0) + c * pc
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return list(out.items())
