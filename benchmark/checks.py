"""Correctness checks of the three studies.

Each check reads the study's emitted ``convergence.csv`` (as records with
the ``LevelRecord`` attribute names) and returns a list of failure
messages, empty when the study passes.  The references are the paper's
device energy, rate bands derived from the theory, dof counts that follow
from the mesh construction, and a symmetry of the device problem; none is
a stored copy of the program's output.
"""

import math

import numpy as np

# Paper's D1 energy at h = sqrt(2)/256 (the criterion-4 table) and the
# tolerance acceptance criterion 4 allows.
DEVICE_D1_ENERGY = 78.04
DEVICE_ENERGY_RTOL = 0.005
# Successive-difference L2 orders of a smooth P1 solution: 2 less the
# pre-asymptotic margin of criterion 4.
DEVICE_L2_BAND = (1.6, 2.0)
# Reflection x <-> y with (psi1, psi2) -> (-psi1, psi2) maps the D1 problem
# and the red-refined square mesh onto themselves, so the solution is
# symmetric: to rounding with direct solves (2e-15 at 8,450 dofs, 7e-15 at
# 132,098), and to the Newton tolerance 1e-8 with any solve that is exact
# only to that.  A wrong state or an asymmetric assembly breaks it at O(1).
DEVICE_SYMMETRY_TOL = 1e-6

# L-shape, uniform: energy order alpha = 1/2 of the r^{1/2} corner mode;
# L2 order between the duality rate alpha + alpha* = 7/6 (less a margin)
# and the P1 best-approximation ceiling 1 + alpha = 3/2 (criterion 2).
LSHAPE_ENERGY_BAND = (0.45, 0.60)
LSHAPE_L2_BAND = (1.10, 1.50)

# L-shape, adaptive (criteria 5 and 7): optimal order 1/2 in Ndof for
# Ndof >= 1000, an efficiency constant steady within 25 % over the paper's
# levels 3-7 (2,958 to 50,000 dofs), error 0.03 reached within 10k dofs.
ADAPTIVE_ORDER_BAND = (0.45, 0.60)
ADAPTIVE_FIT_FROM = 1000
CEFF_WINDOW = (2958, 50000)
CEFF_SPREAD = 0.25
ADAPTIVE_ERROR_TARGET = 0.03
ADAPTIVE_TARGET_NDOF = 10000
ADAPTIVE_STOP_NDOF = 50000


def _in(value, band):
    return band[0] <= value <= band[1]


def finite_levels(records, columns):
    """Number of leading records whose given columns are all finite."""
    n = 0
    for rec in records:
        if not all(math.isfinite(getattr(rec, c)) for c in columns):
            break
        n += 1
    return n


def check_device(records, levels=4, initial_refine=5):
    """D1 ladder from ``initial_refine`` red refinements of the square."""
    fails = []
    if len(records) != levels:
        return [f"expected {levels} levels, got {len(records)}"]
    for k, rec in enumerate(records):
        n = 2 ** (initial_refine + k)               # squares per side
        if rec.ndof != 2 * (n + 1) ** 2:
            fails.append(f"level {k}: ndof {rec.ndof} != 2 (2^{initial_refine + k} + 1)^2")
    h3 = records[3].h_max
    if abs(h3 - math.sqrt(2) / 256) > 1e-12 * h3:
        fails.append(f"level 3: h {h3!r} != sqrt(2)/256")
    e3 = records[3].energy
    if not abs(e3 - DEVICE_D1_ENERGY) <= DEVICE_ENERGY_RTOL * DEVICE_D1_ENERGY:
        fails.append(f"energy at h = sqrt(2)/256 is {e3!r}, not within "
                     f"{DEVICE_ENERGY_RTOL:.1%} of {DEVICE_D1_ENERGY}")
    for rec in records[2:]:
        if not _in(rec.order_l2, DEVICE_L2_BAND):
            fails.append(f"level {rec.level}: successive-difference L2 order "
                         f"{rec.order_l2!r} outside {DEVICE_L2_BAND}")
    return fails


def reflection_permutation(vertices):
    """perm with vertices[perm[i]] == (y_i, x_i), or None when the vertex
    set is not symmetric under x <-> y."""
    swapped = vertices[:, ::-1]
    a = np.lexsort((vertices[:, 1], vertices[:, 0]))
    b = np.lexsort((swapped[:, 1], swapped[:, 0]))
    perm = np.empty(len(vertices), dtype=np.int64)
    perm[b] = a
    if not np.array_equal(vertices[perm], swapped):
        return None
    return perm


def check_device_symmetry(vertices, coeffs):
    """The continuous P1 field with the given nodal coefficients (component
    blocks (psi1, psi2)) satisfies psi(y, x) = (-psi1(x, y), psi2(x, y))."""
    perm = reflection_permutation(np.asarray(vertices))
    if perm is None:
        return ["mesh is not symmetric under x <-> y"]
    psi1, psi2 = np.asarray(coeffs).reshape(2, -1)
    defect = max(np.abs(psi1[perm] + psi1).max(),
                 np.abs(psi2[perm] - psi2).max())
    if not defect <= DEVICE_SYMMETRY_TOL:
        return [f"reflection defect {defect:.3e} above {DEVICE_SYMMETRY_TOL:g}"]
    return []


def check_lshape_dg(records, levels=5):
    """SIPG study on the L-shape from one red refinement (24 triangles)."""
    if len(records) != levels:
        return [f"expected {levels} levels, got {len(records)}"]
    fails = []
    for k, rec in enumerate(records):
        if rec.ndof != 144 * 4 ** k:
            fails.append(f"level {k}: ndof {rec.ndof} != 2 * 3 * 24 * 4^{k}")
    last = records[-1]
    if not _in(last.order_energy, LSHAPE_ENERGY_BAND):
        fails.append(f"last energy order {last.order_energy!r} outside "
                     f"{LSHAPE_ENERGY_BAND}")
    if not _in(last.order_l2, LSHAPE_L2_BAND):
        fails.append(f"last L2 order {last.order_l2!r} outside {LSHAPE_L2_BAND}")
    return fails


def check_lshape_adaptive(records):
    """Adaptive Nitsche run stopped at the first level >= 50k dofs."""
    if not records:
        return ["no levels"]
    ndof = np.array([r.ndof for r in records], dtype=float)
    err = np.array([r.err_energy for r in records])
    ceff = np.array([r.c_eff for r in records])
    fails = []
    if ndof[-1] < ADAPTIVE_STOP_NDOF or (ndof[:-1] >= ADAPTIVE_STOP_NDOF).any():
        fails.append(f"run did not stop at the first level >= {ADAPTIVE_STOP_NDOF} dofs")
    tail = ndof >= ADAPTIVE_FIT_FROM
    if tail.sum() < 2:
        return fails + [f"fewer than two levels with >= {ADAPTIVE_FIT_FROM} dofs"]
    order = -np.polyfit(np.log(ndof[tail]), np.log(err[tail]), 1)[0]
    if not _in(order, ADAPTIVE_ORDER_BAND):
        fails.append(f"fitted energy-error order {order!r} outside "
                     f"{ADAPTIVE_ORDER_BAND}")
    window = ceff[(ndof >= CEFF_WINDOW[0]) & (ndof <= CEFF_WINDOW[1])]
    if len(window) < 4:
        fails.append(f"only {len(window)} levels in the c_eff window {CEFF_WINDOW}")
    else:
        spread = (window.max() - window.min()) / window.mean()
        if not spread < CEFF_SPREAD:
            fails.append(f"c_eff spread {spread:.1%} over {CEFF_WINDOW} dofs "
                         f"not below {CEFF_SPREAD:.0%}")
    reached = ndof[err <= ADAPTIVE_ERROR_TARGET]
    if not (len(reached) and reached[0] <= ADAPTIVE_TARGET_NDOF):
        fails.append(f"error {ADAPTIVE_ERROR_TARGET} not reached within "
                     f"{ADAPTIVE_TARGET_NDOF} dofs")
    return fails
