"""Weighted-node representation of L2 functions on rectangular patches.

Input and output spaces are L2 over axis-aligned rectangles inside the unit
square. A function is represented by its values at the nodes of a tensor
Gauss-Legendre rule over the rectangle; every inner product is the weighted
node sum

    <f, g> = sum_k w_k f(z_k) conj(g(z_k)),

linear in the first argument and conjugate-linear in the second. A function
is its row of node values; stacked functions are stacked rows. A row is
read on the grid it is handed with, so a row of the wrong length raises
ValueError from numpy, and grids are compared where a file or a config
hands over a function. A process builds each 1-D rule once per order; both
axes, both patches and every grid read from a file share it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Patch:
    """Axis-aligned rectangle [x_lo, x_hi] x [y_lo, y_hi] in the unit square."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self):
        ok = (
            0.0 <= self.x_lo < self.x_hi <= 1.0
            and 0.0 <= self.y_lo < self.y_hi <= 1.0
        )
        if not ok:
            raise ValueError(
                "patch must be a nondegenerate axis-aligned rectangle inside "
                f"the closed unit square, got {self}"
            )


@functools.lru_cache(maxsize=None)
def _gauss_rule(order):
    """Read-only Gauss-Legendre nodes and weights of one order on [-1, 1]."""
    t, w = np.polynomial.legendre.leggauss(order)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _gauss_segment(lo, hi, order):
    """Gauss-Legendre nodes and weights on [lo, hi]."""
    t, w = _gauss_rule(order)
    half = 0.5 * (hi - lo)
    return half * t + 0.5 * (hi + lo), half * w


class QuadratureGrid:
    """Tensor Gauss-Legendre rule of a given order per axis on a patch.

    ``order`` is the node count per axis, so the rule has order**2 nodes and
    integrates polynomials of degree up to 2*order - 1 in each variable
    exactly. Nodes are stored x-major: node index k = i*order + j refers to
    (x_i, y_j). The node order is part of the format; serialized values
    rely on it. ``axis_nodes`` = (x, y) and ``axis_weights`` = (wx, wy) are
    the 1-D rules; ``weights`` is their outer product, flattened.
    """

    def __init__(self, patch: Patch, order: int):
        if not isinstance(order, (int, np.integer)) or order < 1:
            raise ValueError(f"quadrature order must be a positive integer, got {order!r}")
        self.patch = patch
        self.order = int(order)
        x, wx = _gauss_segment(patch.x_lo, patch.x_hi, self.order)
        y, wy = _gauss_segment(patch.y_lo, patch.y_hi, self.order)
        nodes = np.stack((np.repeat(x, self.order), np.tile(y, self.order)), axis=1)
        weights = np.outer(wx, wy).ravel()
        for arr in (nodes, weights, x, y, wx, wy):
            arr.setflags(write=False)
        self.nodes = nodes
        self.weights = weights
        self.axis_nodes = (x, y)
        self.axis_weights = (wx, wy)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def __eq__(self, other):
        if not isinstance(other, QuadratureGrid):
            return NotImplemented
        return self.patch == other.patch and self.order == other.order

    def __hash__(self):
        return hash((self.patch, self.order))

    def __repr__(self):
        return f"QuadratureGrid({self.patch!r}, order={self.order})"


def inner_product(f, g, grid: QuadratureGrid) -> complex:
    """Weighted node inner product of the rows f and g on grid,
    conjugate-linear in the second slot.

    The accumulation order is the grid's fixed node order, so results are
    reproducible bit for bit across runs.
    """
    return complex(np.sum(grid.weights * f * np.conj(g)))


def row_norms(rows, grid: QuadratureGrid):
    """L2 norms of the functions whose node values on grid are the last axis
    of rows; a stacked row's norm equals its norm alone bit for bit."""
    return np.sqrt(np.sum(grid.weights * np.abs(rows) ** 2, axis=-1))


def restrict_mode(n: int, m: int, grid: QuadratureGrid):
    """Node values on grid of the Laplacian eigenfunction
    2 sin(n pi x) sin(m pi y).

    The modes are orthonormal over the full unit square; restricted to a
    proper patch they are neither normalized nor orthogonal.
    """
    if n < 1 or m < 1:
        raise ValueError(f"mode indices must be >= 1, got ({n}, {m})")
    x, y = grid.nodes.T
    return 2.0 * np.sin(n * np.pi * x) * np.sin(m * np.pi * y)

