"""The package's one adaptive quadrature driver, ``adaptive_gauss_legendre``."""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import BudgetError, InvariantViolation

_GL_NODES, _GL_WEIGHTS = leggauss(16)


def _lagrange_weights(x) -> np.ndarray:
    """Lagrange weights that carry a panel's 16 node values to the points x
    in [-1, 1]: shape (16,) for a scalar x, (len(x), 16) for an array."""
    x = np.asarray(x, dtype=float)[..., None, None]
    others = ~np.eye(len(_GL_NODES), dtype=bool)
    num = np.where(others, x - _GL_NODES[None, :], 1.0).prod(axis=-1)
    den = np.where(others, _GL_NODES[:, None] - _GL_NODES[None, :], 1.0).prod(axis=1)
    return num / den


# Carry a panel's node values to its lower and its upper end.  No node lies
# within _GL_GAP half-widths of either end, so the rule alone cannot see what
# the integrand does there.
_GL_LOWER, _GL_UPPER = _lagrange_weights(-1.0), _lagrange_weights(1.0)
_GL_GAP = 1.0 - float(_GL_NODES[-1])

# Carry a panel's node values to the 32 nodes of its halves.  Where the
# panel's interpolant misses the halves' values by more than _KINK_MISS of
# their largest size, the panel is not smooth at its own scale.  For a smooth
# integrand the miss shrinks like the square root of the relative shift
# (about 4e-5 at a shift of 1e-10).  A kink |t - c| with c farther than 1% of
# the half-width from the panel's ends misses by at least 1.7e-3 of max |f|.
# For such a kink the shift can read near 0 by coincidence, when the whole's
# error and the halves' error agree: at about one c in 800 the shift is below
# a hundredth of the halves' error.  Its halves' error is at most 0.07 times
# the panel's half-width times the miss, so _KINK_BOUND times that product
# bounds the error of a panel that misses.  Kinks nearer the ends are left
# to the jump test below.
_GL_HALVES = _lagrange_weights(np.concatenate([0.5 * _GL_NODES - 0.5,
                                               0.5 * _GL_NODES + 0.5]))
_KINK_MISS = 1.0e-3
_KINK_BOUND = 0.1


def _abs_max(values: np.ndarray) -> float:
    return float(max(values.max(), -values.min()))


@dataclass(eq=False)
class _Leaf:
    """An accepted panel: its halves' integrals and node values (flattened
    to 16 rows), its tolerance and the width next to each end that no node
    of a half samples."""

    lo: float
    hi: float
    depth: int
    left: object
    right: object
    left_values: np.ndarray
    right_values: np.ndarray
    tol: float
    gap: float


def _leaves(tree):
    if isinstance(tree, _Leaf):
        yield tree
    else:
        for branch in tree:
            yield from _leaves(branch)


def _total(tree):
    if isinstance(tree, _Leaf):
        return tree.left + tree.right
    return _total(tree[0]) + _total(tree[1])


def adaptive_gauss_legendre(f, a: float = 0.0, b: float = 1.0,
                            rel_tol: float = 1e-10, abs_floor: float = 1e-12,
                            max_depth: int = 24):
    """Adaptive panel-splitting Gauss-Legendre quadrature.

    ``f`` maps the array of a panel's 16 abscissas to an array of values
    (scalar or vector-valued along trailing axes) in one call.  Panels split
    until the refinement shift is below rel_tol times the running scale, with
    abs_floor as the absolute fallback.  A NaN or infinite value raises
    ``InvariantViolation``: it could never pass the shift test, so the
    recursion would otherwise run the full tree down to max_depth.

    The shift test alone is blind next to each panel end, where no node of
    the panel or of its halves lies: a kink there leaves all three rules on
    one straight line.  So where two accepted halves meet, their
    interpolants must also agree: the jump between them times the unsampled
    width bounds what the rules miss there, and it must stay within the
    panel's tolerance.  A failed meeting splits both panels next to it.  The
    check uses node values already computed, so it costs no call of ``f``,
    and the ends a and b themselves are never checked.

    The shift test can also read near 0 for a kink inside a panel, where the
    errors of the whole and of its halves happen to agree.  A panel whose
    interpolant misses its halves' node values by more than ``_KINK_MISS`` of
    their size is taken as not smooth, and its shift is raised to the kink
    bound ``_KINK_BOUND`` times its half-width times the miss.  At the
    default rel_tol a smooth panel's miss is far below that once its shift
    passes; at looser tolerances a smooth panel may split once more.
    A panel that still fails a test at max_depth raises ``BudgetError``.
    """

    def panel(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        values = np.asarray(f(mid + half * _GL_NODES), dtype=float)
        if not np.all(np.isfinite(values)):
            raise InvariantViolation(
                f"integrand is not finite on the panel [{lo:.17g}, {hi:.17g}]"
            )
        return half * np.tensordot(_GL_WEIGHTS, values, axes=([0], [0])), values

    def refine(lo, hi, whole, whole_values, depth):
        mid = 0.5 * (lo + hi)
        left, left_values = panel(lo, mid)
        right, right_values = panel(mid, hi)
        better = left + right
        drift = np.max(np.abs(better - whole))
        scale = max(float(np.max(np.abs(better))), 1.0e-30)
        tol = max(rel_tol * scale, abs_floor)
        left_values = left_values.reshape(len(_GL_NODES), -1)
        right_values = right_values.reshape(len(_GL_NODES), -1)
        if drift <= tol:
            # in place: fresh temporaries of 32 rows cost more than the product
            whole_values = whole_values.reshape(len(_GL_NODES), -1)
            spread = _GL_HALVES @ whole_values
            spread[:len(_GL_NODES)] -= left_values
            spread[len(_GL_NODES):] -= right_values
            miss = _abs_max(spread)
            size = max(_abs_max(left_values), _abs_max(right_values),
                       _abs_max(whole_values))
            if miss > _KINK_MISS * size:
                drift = max(drift, _KINK_BOUND * (mid - lo) * miss)
        if drift <= tol:
            gap = 0.5 * (mid - lo) * _GL_GAP
            drift = gap * np.max(np.abs(_GL_UPPER @ left_values
                                        - _GL_LOWER @ right_values))
            if drift <= tol:
                return _Leaf(lo, hi, depth, left, right, left_values,
                             right_values, tol, gap)
        if depth >= max_depth:
            raise BudgetError(
                f"quadrature panel [{lo:.17g}, {hi:.17g}] still shifts by "
                f"{drift:.3e} at the maximum depth {max_depth}"
            )
        return (refine(lo, mid, left, left_values, depth + 1),
                refine(mid, hi, right, right_values, depth + 1))

    def split(tree, torn):
        if isinstance(tree, tuple):
            return split(tree[0], torn), split(tree[1], torn)
        if tree not in torn:
            return tree
        mid = 0.5 * (tree.lo + tree.hi)
        return (refine(tree.lo, mid, tree.left, tree.left_values,
                       tree.depth + 1),
                refine(mid, tree.hi, tree.right, tree.right_values,
                       tree.depth + 1))

    tree = refine(float(a), float(b), *panel(float(a), float(b)), 0)
    while isinstance(tree, tuple):
        torn = set()
        leaves = list(_leaves(tree))
        for p, q in zip(leaves, leaves[1:]):
            jump = np.max(np.abs(_GL_UPPER @ p.right_values
                                 - _GL_LOWER @ q.left_values))
            if jump * p.gap <= p.tol and jump * q.gap <= q.tol:
                continue
            if max(p.depth, q.depth) >= max_depth:
                raise BudgetError(
                    f"quadrature panels meeting at {q.lo:.17g} still jump by "
                    f"{jump:.3e} at the maximum depth {max_depth}"
                )
            torn.update((p, q))
        if not torn:
            break
        tree = split(tree, torn)
    return _total(tree)
