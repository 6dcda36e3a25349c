"""Weight-matrix assembly from edge-orbit weights, plus standard schemes.

Every symmetric averaging matrix that respects the branch-permuting symmetry
of a TFS network is determined by one weight per edge orbit, which
``OrbitWeights`` stores as one read-only vector.  The assembled matrix is a
read-only array, symmetric and row-stochastic by construction: off-diagonal
entries carry the orbit weight of their edge, diagonals absorb the rest.
Each standard scheme weighs all of its interior orbits alike, so it is a
``SkeletonBlocks``: Metropolis weighs 1/2 on every orbit but the two at
the center, and max-degree and best-constant one weight ``alpha`` on
every orbit.  Every report reads its scheme's skeleton, in O(1) of the
branch lengths, and ``skeleton_weights`` writes the weights out, in
O(m1 + m2), for the weight writer and the iteration.  Weights keyed by
orbit label (``orbit_weights_from_labels``) and each scheme's weights
written out by name (``metropolis_orbit_weights`` and the others) are in
``fusedstar.reference``.
Max-degree's and best-constant's matrix is ``I - alpha L`` for the graph
Laplacian ``L``, an affine image of the unit weights' ``I - L``:
``_unit_report`` reads the unit weights' extreme eigenvalues from their
skeleton, whose interior weight is 1.  Best-constant's weight comes from
that report, and ``constant_weight_slems`` gives both schemes' SLEMs from
it.  ``spectral`` needs nothing from this module at run time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import SkeletonBlocks, SpectralReport
from .topology import InvalidParameterError, TfsParams, edge_table


class MissingOrbitWeightError(ValueError):
    """Orbit weight set does not match the network's edge orbits."""


@dataclass(frozen=True, eq=False)
class OrbitWeights:
    """One weight per edge orbit of one network, as a read-only vector.

    ``values[k]`` is the weight of orbit ``params.orbit_labels[k]``:
    ``-m1..-1`` on the first star, then ``1..m2`` on the second.
    """

    params: TfsParams
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.shape != (self.params.m1 + self.params.m2,):
            raise MissingOrbitWeightError(
                f"orbit weights of shape {values.shape} do not fit {self.params}"
            )
        if not np.isfinite(values).all():
            label = self.params.orbit_labels[int(np.argmin(np.isfinite(values)))]
            raise ValueError(f"weight for orbit {label} is not finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, params: TfsParams, value: float) -> "OrbitWeights":
        return cls(params, np.full(params.m1 + params.m2, float(value)))

    def values_for(self, params: TfsParams) -> np.ndarray:
        """The stored vector, after checking that it belongs to ``params``."""
        if params != self.params:
            raise MissingOrbitWeightError(f"weights for {self.params} do not fit {params}")
        return self.values

    def __getitem__(self, label: int) -> float:
        if label == 0 or not -self.params.m1 <= label <= self.params.m2:
            raise KeyError(label)
        return float(self.values[self.params.m1 + label - (label > 0)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrbitWeights):
            return NotImplemented
        return self.params == other.params and np.array_equal(self.values, other.values)


def assemble_weight_matrix(params: TfsParams, ow: OrbitWeights) -> np.ndarray:
    """The symmetric row-stochastic matrix of the given orbit weights, as a
    read-only ``(n, n)`` array in canonical node order.

    Off-diagonals carry the orbit weight of their edge; each diagonal entry
    is 1 minus the rest of its row.  This dense matrix is the oracle the
    block route is checked against, so it is built from the edge table
    alone.
    """
    w = ow.values_for(params)
    a, b, k = edge_table(params)
    n = params.n_nodes
    mat = np.zeros((n, n))
    mat[a, b] = mat[b, a] = w[k]
    np.fill_diagonal(mat, 1.0 - mat.sum(axis=1))
    mat.flags.writeable = False
    return mat


def skeleton_weights(skeleton: SkeletonBlocks) -> OrbitWeights:
    """The orbit weights that ``skeleton`` stands for, written out: its
    interior weight on every orbit but the two at the center, which weigh
    its ``w_minus_1`` and ``w_plus_1``."""
    p = skeleton.params
    w = np.full(p.m1 + p.m2, float(skeleton.interior))
    w[p.m1 - 1], w[p.m1] = skeleton.w_minus_1, skeleton.w_plus_1
    return OrbitWeights(p, w)


def _reciprocal(n: int) -> float:
    """``1.0 / n``; for an ``n`` past the float range, which ``1.0 / n``
    cannot convert, Python's correctly rounded integer quotient ``1 / n``."""
    try:
        return 1.0 / n
    except OverflowError:
        return 1 / n


def _max_degree_weight(params: TfsParams, convention: str) -> float:
    dmax = params.n1 + params.n2
    if convention == "inv_dmax":
        return _reciprocal(dmax)
    if convention == "inv_dmax_plus_1":
        return _reciprocal(dmax + 1)
    raise ValueError(
        "convention must be 'inv_dmax' or 'inv_dmax_plus_1', "
        f"got {convention!r}"
    )


def max_degree_skeleton(
    params: TfsParams, convention: str = "inv_dmax"
) -> SkeletonBlocks:
    """Constant edge weight from the maximum degree, the center's n1 + n2.

    ``inv_dmax`` uses 1/d_max, ``inv_dmax_plus_1`` uses 1/(d_max + 1).
    """
    alpha = _max_degree_weight(params, convention)
    return SkeletonBlocks(params, alpha, alpha, alpha)


def metropolis_skeleton(params: TfsParams) -> SkeletonBlocks:
    """Metropolis weights per edge orbit, 1/max(deg_a, deg_b).

    The larger endpoint degree is the center's n1 + n2 on the two
    center-adjacent orbits and 2 on every other orbit, whose edges all
    touch a branch interior.
    """
    r = _reciprocal(params.n1 + params.n2)
    return SkeletonBlocks(params, r, r, 0.5)


def _unit_report(params: TfsParams) -> SpectralReport:
    """The report of the unit weights' skeleton: the extreme eigenvalues
    of ``I - L`` for the graph Laplacian ``L``.  A center of so many
    branches that its diagonal entry ``1 - n1 - n2`` is 2^1023 or more in
    magnitude, or overflows float64, is refused as invalid input before
    any block is built: no block route reads such an entry (see
    ``spectral._RunCount``), as ``build_dual_certificate`` refuses a node
    count past the float range."""
    if abs(1.0 - params.n1 - params.n2) >= 2.0**1023:
        raise InvalidParameterError(
            "the center's degree n1 + n2 is too large for floating-point arithmetic"
        )
    return SkeletonBlocks(params, 1.0, 1.0, 1.0).report()


def _best_constant_weight(unit: SpectralReport) -> float:
    return 2.0 / (2.0 - unit.lambda_min - unit.lambda2)


def best_constant_skeleton(params: TfsParams) -> SkeletonBlocks:
    """Best constant edge weight, 2 / (lambda_max(L) + lambda_second_min(L)).

    L is the graph Laplacian; the second smallest eigenvalue is the
    algebraic connectivity.  The unit-weight averaging matrix is ``I - L``,
    so both come from the extreme eigenvalues of its skeleton: the weight
    is ``2 / (2 - lambda_min - lambda2)`` of that matrix.
    """
    alpha = _best_constant_weight(_unit_report(params))
    return SkeletonBlocks(params, alpha, alpha, alpha)


def constant_weight_slems(
    params: TfsParams, convention: str = "inv_dmax"
) -> tuple[float, float]:
    """The SLEMs of max-degree's weights under ``convention`` and of
    best-constant's, from one read of the unit weights' skeleton.

    A constant weight ``alpha`` gives ``W = I - alpha L = (1 - alpha) I +
    alpha U`` with ``U = I - L`` the unit weights' matrix; block by block,
    with the same multiplicities, ``W``'s blocks are ``(1 - alpha) I +
    alpha`` times ``U``'s.  For ``alpha > 0`` the map keeps the order of the
    eigenvalues, so ``lambda2(W) = 1 - alpha (1 - lambda2(U))`` and
    ``lambda_min(W) = 1 - alpha (1 - lambda_min(U))``, and the SLEM is
    ``max(1 - alpha (1 - lambda2(U)), alpha (1 - lambda_min(U)) - 1)``.
    ``lambda_min(W)`` is not given: near 0 its form cancels, and only the
    report of ``W``'s own skeleton has it to relative accuracy.

    Error: let a route read each eigenvalue of a matrix ``M`` to within
    ``r eps ||M||``.  A skeleton's read (``SkeletonBlocks.report``) has
    ``r = 8``: a dense solve of a block is good to a few ``eps ||T||``, a
    search ends two ulps wide on counts whose backward error is a few
    ``eps`` per entry, and a block's norm is at most its matrix's.  A
    dense solve of the whole matrix, as ``full_spectrum``, is good to
    ``p(n) eps ||M||``, here ``r = n`` for ``n`` rows.  Reading ``U`` on
    its skeleton and scaling by ``alpha`` moves the SLEM by at most
    ``8 eps alpha ||U||``; the form's three roundings move it by at most
    ``eps (1 + alpha (1 - lambda_min(U)))``.  Both matrices' top eigenvalue is 1, so ``||U|| =
    max(1, -lambda_min(U))`` and ``||W|| = max(1, alpha (1 -
    lambda_min(U)) - 1)``, and the SLEM differs from the route's read of
    ``W`` by at most ``eps (8 alpha ||U|| + r ||W|| + 1 + alpha (1 -
    lambda_min(U)))``.  Both schemes have ``alpha lambda_max(L) <= 2``:
    ``lambda_max(L) <= d_max + 2``, and best-constant's ``alpha`` is at
    most ``2 / lambda_max(L)``.  Against the report of ``W``'s own
    skeleton the bound is then at most ``27 eps``, 6.0e-15.
    """
    unit = _unit_report(params)
    return tuple(
        max(1.0 - alpha * (1.0 - unit.lambda2), alpha * (1.0 - unit.lambda_min) - 1.0)
        for alpha in (_max_degree_weight(params, convention), _best_constant_weight(unit))
    )
