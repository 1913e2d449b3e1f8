"""Benchmark workloads: the bundled netlib files and two seeded LP families.

Every workload is a list of MPS files.  The program under test receives
only those files, exactly as it receives ``data/netlib``; the generated
families are written with ``arclp.write_mps`` during set-up.  Sizes are
fixed per family, and the workload seed changes only the numbers (costs,
capacities, demands), never the shapes, so timings of two seeds compare.

Why these three:

``netlib``
    The paper's eight instances and the acceptance iteration table.  All
    are tiny and dense (m <= 140 after presolve), so time goes to per-call
    overhead in the Newton kernel and to the arc step search.

``transport``
    Transportation problems: ``sum_j x_ij <= supply_i`` and
    ``sum_i x_ij >= demand_j``.  m = S + D is held between 100 and 195
    rows so the normal matrix stays on the dense Cholesky path
    (``linalg.DENSE_LIMIT`` is 200), while n = S*D + S + D runs from 1k to
    3k columns.  Wide and short, so ingestion (parsing, the
    standardizer and presolve's dense QR rank guard) carries about half of
    the time and the factorization is cheap.

``staircase``
    Multi-period production planning.  Each period has one balance row
    (E) per product and one capacity row (L) per resource; inventory
    columns link period t to t+1, which gives the block staircase.
    Overtime columns have finite upper bounds, so the standardizer emits
    bound rows.  m is 2.1k-2.5k and n 3.8k-4.5k: every instance
    takes the sparse ``splu`` path (m > 200) and exceeds the ``m*n > 4e6``
    cap above which presolve skips its rank guard, so factorization
    dominates and presolve is almost free.  The inventory columns and the
    slack columns make the rows independent by construction, which the
    kernel needs once the rank guard is skipped.

All generated instances are feasible with a strictly interior point
(supply and capacity exceed demand) and bounded (costs are positive on
nonnegative columns), so every request of every algorithm is expected to
end ``Optimal``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.sparse as sp

# Certified optimal objectives of the bundled netlib instances, the values
# the repository's acceptance suite checks against.
NETLIB_OPTIMA = {
    "afiro": -4.6475314286e2,
    "adlittle": 2.2549496316e5,
    "sc50a": -6.4575077059e1,
    "sc50b": -7.0000000000e1,
    "kb2": -1.7499001299e3,
    "share2b": -4.1573224074e2,
    "scagr7": -2.3313892548e6,
    "beaconfd": 3.3592485807e4,
}
NETLIB_RTOL = 1e-5

# (supplies S, demands D): m = S + D rows, S*D + m standard columns.
TRANSPORT_SIZES = [(10, 90), (12, 108), (14, 126), (16, 144), (16, 176)]

# (periods T, products P, resources R): m = T*(2P + R) rows counting the
# bound rows, n = T*(4P + R) standard columns.
STAIRCASE_SIZES = [(42, 20, 10), (50, 20, 10)]

WORKLOADS = ("netlib", "transport", "staircase")
ALGORITHMS = ("alg2", "arc", "line", "alg1")


def _empty(n):
    return sp.csr_array((0, n)), np.zeros(0), []


def transport_lp(arclp, S, D, rng, name):
    """Transportation LP with S supply rows (L) and D demand rows (G)."""
    n = S * D
    cost = np.round(rng.uniform(1.0, 100.0, size=(S, D)), 2)
    demand = np.round(rng.uniform(10.0, 100.0, size=D), 1)
    share = rng.uniform(0.5, 1.5, size=S)
    supply = np.round(1.25 * demand.sum() * share / share.sum(), 1)

    cols = np.arange(n)
    supply_rows = sp.csr_array((np.ones(n), (cols // D, cols)), shape=(S, n))
    demand_rows = sp.csr_array((np.ones(n), (cols % D, cols)), shape=(D, n))
    A_eq, b_eq, names_eq = _empty(n)
    return arclp.RawLP(
        name=name,
        col_names=["X%d_%d" % (i, j) for i in range(S) for j in range(D)],
        c=cost.ravel(),
        A_eq=A_eq, b_eq=b_eq, row_names_eq=names_eq,
        A_ge=demand_rows, b_ge=demand,
        row_names_ge=["D%d" % j for j in range(D)],
        A_le=supply_rows, b_le=supply,
        row_names_le=["S%d" % i for i in range(S)],
        lower=np.zeros(n), upper=np.full(n, np.inf))


def technology(P, R):
    """Resource use per unit of each product, the same for every seed.

    About a third of the resource-product pairs are zero, so capacity rows
    differ in pattern.  The matrix is drawn from a constant seed: drawn
    from the workload seed, it moved the fill of SuperLU's factors of the
    normal matrix between 1.2e5 and 5.4e5 nonzeros on st50x20x10 over 20
    seeds (threshold pivoting leaves the diagonal on some patterns), which
    made staircase timings spread from seed to seed by more than any
    usable bound.  With it fixed, the fill stays within 1.21e5-1.25e5.
    """
    tech = np.random.default_rng(0)
    use = np.round(tech.uniform(0.5, 2.0, size=(R, P)), 2)
    use *= tech.random((R, P)) > 0.33
    use[np.arange(R), np.arange(R) % P] = np.maximum(
        use[np.arange(R), np.arange(R) % P], 0.5)
    return use


def staircase_lp(arclp, T, P, R, rng, name):
    """Multi-period production plan with T periods, P products, R resources.

    Columns per period: regular production ``G``, overtime production
    ``O`` (bounded above) and end-of-period inventory ``I``.  Balance row
    of product p in period t::

        I[p, t-1] + G[p, t] + O[p, t] - I[p, t] = demand[p, t]

    with the opening stock moved to the right-hand side in period 0.
    Capacity row of resource r in period t::

        sum_p use[r, p] * G[p, t] <= cap[r, t]
    """
    use = technology(P, R)
    demand = np.round(rng.uniform(20.0, 80.0, size=(T, P)), 1)
    regular = 0.8 * demand
    cap = np.round(1.1 * regular @ use.T + 1.0, 1)
    ot_cap = np.round(0.4 * demand + 1.0, 1)
    opening = np.round(rng.uniform(0.0, 20.0, size=P), 1)
    base_cost = rng.uniform(5.0, 15.0, size=P)
    drift = rng.uniform(0.9, 1.1, size=(T, P))
    prod_cost = np.round(base_cost * drift, 2)
    ot_cost = np.round(prod_cost * rng.uniform(1.3, 1.8, size=(T, P)), 2)
    hold_cost = np.round(rng.uniform(0.2, 1.0, size=(T, P)), 2)

    # Column layout: per period t, [G(P), O(P), I(P)].
    width = 3 * P
    n = T * width

    def col(kind, t, p):
        return t * width + kind * P + p

    rows, cols, vals = [], [], []
    for t in range(T):
        for p in range(P):
            r = t * P + p
            for j, v in ((col(0, t, p), 1.0), (col(1, t, p), 1.0),
                         (col(2, t, p), -1.0)):
                rows.append(r)
                cols.append(j)
                vals.append(v)
            if t > 0:
                rows.append(r)
                cols.append(col(2, t - 1, p))
                vals.append(1.0)
    A_eq = sp.csr_array((vals, (rows, cols)), shape=(T * P, n))
    b_eq = demand.copy()
    b_eq[0] -= opening
    b_eq = b_eq.ravel()

    rows, cols, vals = [], [], []
    for t in range(T):
        for r in range(R):
            for p in np.nonzero(use[r])[0]:
                rows.append(t * R + r)
                cols.append(col(0, t, p))
                vals.append(use[r, p])
    A_le = sp.csr_array((vals, (rows, cols)), shape=(T * R, n))

    c = np.stack([prod_cost, ot_cost, hold_cost], axis=1).ravel()
    upper = np.full(n, np.inf)
    upper.reshape(T, 3, P)[:, 1, :] = ot_cap
    kinds = "GOI"
    A_ge, b_ge, names_ge = _empty(n)
    return arclp.RawLP(
        name=name,
        col_names=["%s%dT%d" % (kinds[k], p, t) for t in range(T)
                   for k in range(3) for p in range(P)],
        c=c,
        A_eq=A_eq, b_eq=b_eq,
        row_names_eq=["B%dT%d" % (p, t) for t in range(T)
                      for p in range(P)],
        A_ge=A_ge, b_ge=b_ge, row_names_ge=names_ge,
        A_le=A_le, b_le=cap.ravel(),
        row_names_le=["R%dT%d" % (r, t) for t in range(T)
                      for r in range(R)],
        lower=np.zeros(n), upper=upper)


def generate(arclp, workload, seed):
    """Generated instances of a family, as a list of RawLP."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "transport":
        return [transport_lp(arclp, S, D, rng, "tr%dx%d" % (S, D))
                for S, D in TRANSPORT_SIZES]
    if workload == "staircase":
        return [staircase_lp(arclp, *size, rng, "st%dx%dx%d" % size)
                for size in STAIRCASE_SIZES]
    raise ValueError("workload %r is not generated" % workload)


def write_instances(arclp, workload, seed, directory):
    """Write a generated family as MPS files; return ``[(path, RawLP)]``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for lp in generate(arclp, workload, seed):
        path = directory / (lp.name + ".mps")
        path.write_text(arclp.write_mps(lp))
        out.append((path, lp))
    return out


def standard_columns(lp):
    """Columns of the standard form arclp builds from ``lp`` (no free
    columns occur here): one per variable, per inequality row and per
    finite upper bound."""
    bounded = np.isfinite(lp.upper) & (lp.upper != lp.lower)
    return (lp.n_cols + lp.A_ge.shape[0] + lp.A_le.shape[0]
            + int(bounded.sum()))


def highs_reference(lp):
    """Optimal objective of ``lp`` from scipy's HiGHS, on the raw rows.

    The raw form is handed over directly, so the reference does not go
    through arclp's standardizer or presolve.
    """
    from scipy.optimize import linprog

    A_ub = sp.vstack([lp.A_le, -lp.A_ge]).tocsr()
    b_ub = np.concatenate([lp.b_le, -lp.b_ge])
    bounds = [(lo, None if np.isinf(up) else up)
              for lo, up in zip(lp.lower, lp.upper)]
    res = linprog(lp.c, A_ub=A_ub, b_ub=b_ub, A_eq=lp.A_eq, b_eq=lp.b_eq,
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError("HiGHS could not solve %s: %s"
                           % (lp.name, res.message))
    return float(res.fun) + lp.objective_constant
