"""Uniform box grids and scalar fields sampled on them.

A ``ScalarField`` stands in for a bounded continuous function: multilinear
interpolation inside the box, constant (clamped) extension outside.  All
convergence diagnostics elsewhere in the package are measured on an interior
``CompactWindow`` so that the clamped boundary never contaminates them.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError

Array = np.ndarray

_MIN_POINTS = 8


def _as_tuple(v, dim: Optional[int] = None) -> tuple:
    if np.isscalar(v):
        v = (v,)
    t = tuple(v)
    if dim is not None and len(t) != dim:
        raise InputError(f"expected {dim} per-axis entries, got {len(t)}")
    return t


@dataclass(eq=False)
class Grid:
    """Uniform tensor grid on a box in 1 or 2 dimensions.

    Node coordinates along each axis are exactly ``lo + i * spacing`` with
    ``spacing = (hi - lo) / (n - 1)``; node 0 is ``lo``, node ``n - 1`` is
    ``hi``.  Instances are treated as immutable after construction.
    """

    lo: tuple
    hi: tuple
    n: tuple

    def __post_init__(self):
        self.lo = tuple(float(v) for v in _as_tuple(self.lo))
        self.hi = tuple(float(v) for v in _as_tuple(self.hi, len(self.lo)))
        self.n = tuple(int(v) for v in _as_tuple(self.n, len(self.lo)))
        if self.dim not in (1, 2):
            raise InputError(f"grid dimension must be 1 or 2, got {self.dim}")
        for lo, hi, n in zip(self.lo, self.hi, self.n):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise InputError(f"need finite lo < hi per axis, got [{lo}, {hi}]")
            if n < _MIN_POINTS:
                raise InputError(f"need at least {_MIN_POINTS} points per axis, got {n}")
        self.spacing = tuple(
            (hi - lo) / (n - 1) for lo, hi, n in zip(self.lo, self.hi, self.n)
        )
        self.axes = tuple(
            lo + h * np.arange(n) for lo, h, n in zip(self.lo, self.spacing, self.n)
        )

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple:
        return self.n

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.n))

    def mesh(self) -> tuple:
        """Per axis, that coordinate of every node, shaped like the values."""
        return np.meshgrid(*self.axes, indexing="ij")

    def nodes(self) -> Array:
        """All node coordinates as an (num_nodes, dim) array in C order."""
        return np.stack(self.mesh(), -1).reshape(-1, self.dim)

    def refined(self) -> "Grid":
        """The same box with every spacing halved (the old nodes are kept)."""
        return Grid(self.lo, self.hi, tuple(2 * (n - 1) + 1 for n in self.n))

    @classmethod
    def line(cls, lo: float, hi: float, n: int) -> "Grid":
        return cls((lo,), (hi,), (n,))

    @classmethod
    def box(cls, lo: Sequence[float], hi: Sequence[float], n: Sequence[int]) -> "Grid":
        return cls(tuple(lo), tuple(hi), tuple(n))


@dataclass(eq=False)
class CompactWindow:
    """Interior sub-box on which sup norms and diagnostics are measured."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        self.lo = tuple(float(v) for v in _as_tuple(self.lo))
        self.hi = tuple(float(v) for v in _as_tuple(self.hi, len(self.lo)))
        for lo, hi in zip(self.lo, self.hi):
            if not lo < hi:
                raise InputError(f"window needs lo < hi, got [{lo}, {hi}]")

    def validate_for(self, grid: Grid) -> None:
        # Require a margin of at least 10% of the box width per axis, so the
        # clamped extension cannot reach into measured quantities.
        if len(self.lo) != grid.dim:
            raise InputError("window dimension does not match grid")
        for wlo, whi, glo, ghi in zip(self.lo, self.hi, grid.lo, grid.hi):
            margin = 0.1 * (ghi - glo)
            if wlo < glo + margin - 1e-12 or whi > ghi - margin + 1e-12:
                raise InputError(
                    f"window [{wlo}, {whi}] too close to grid box [{glo}, {ghi}]"
                    f" (need >= 10% margin)"
                )

    def mask(self, grid: Grid) -> Array:
        """Boolean node mask of the window, shaped like the value array."""
        self.validate_for(grid)
        masks = [
            (ax >= lo - 1e-12) & (ax <= hi + 1e-12)
            for ax, lo, hi in zip(grid.axes, self.lo, self.hi)
        ]
        return functools.reduce(np.logical_and.outer, masks)


class ScalarField:
    """Values of a bounded function on a grid, clamped outside the box."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: Array):
        values = np.asarray(values, dtype=float).reshape(grid.shape)
        if not np.all(np.isfinite(values)):
            raise InputError("field values must be finite")
        self.grid = grid
        self.values = values

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable) -> "ScalarField":
        vals = fn(*grid.mesh())
        return cls(grid, np.broadcast_to(np.asarray(vals, dtype=float), grid.shape).copy())

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(c)))

    def eval(self, x) -> Array:
        """Interpolate at points ``x`` of shape (d,) or (..., d) (or bare
        floats in 1-d).  Outside the box the nearest boundary value is used."""
        out = Stencil(self.grid, x).apply(self.values)
        return float(out) if out.ndim == 0 else out

    def sup_norm(self, window: Optional[CompactWindow] = None) -> float:
        if window is None:
            return float(np.max(np.abs(self.values)))
        return float(np.max(np.abs(self.values[window.mask(self.grid)])))

    def __repr__(self):
        return f"ScalarField(dim={self.grid.dim}, n={self.grid.n}, sup={self.sup_norm():.3g})"


_BLOCK = 1 << 14  # points per block, so that temporaries stay in cache


class Stencil:
    """Where fixed points fall on a grid, found once and applied to any field
    on that grid by gathers and arithmetic.

    Per point it stores a node index and the offsets inside that node's cell.
    In 1-d the index is the left node ``j`` and the offset ``x - x_j``, and
    ``apply`` computes ``slope[j] * (x - x_j) + f_j``, the arithmetic of
    NumPy's ``interp``; points left of the box get ``j = 0``, points right of
    it or on the last node ``j = n - 1``, both with offset 0, and the slope
    past the last node is 0.  In 2-d the index is the flat ``i * n1 + j`` of
    the lower-left node and the offsets are the fractions ``fx``, ``fy`` of
    the cell, clipped to the box and snapped to a node within 1e-12 cells so
    that node queries reproduce node values bitwise.
    """

    __slots__ = ("grid", "shape", "index", "offsets")

    def __init__(self, grid: Grid, points):
        pts = np.asarray(points, dtype=float)
        if grid.dim == 1 and pts.ndim > 1 and pts.shape[-1] == 1:
            pts = pts[..., 0]
        self._locate(grid, pts.shape if grid.dim == 1 else pts.shape[:-1], [pts])

    @classmethod
    def from_blocks(cls, grid: Grid, shape: tuple, blocks) -> "Stencil":
        """The stencil of the points that ``blocks`` yields one after another,
        shaped ``shape``; the points need never be held all at once."""
        stencil = cls.__new__(cls)
        stencil._locate(grid, shape, blocks)
        return stencil

    def _locate(self, grid: Grid, shape: tuple, blocks) -> None:
        self.grid = grid
        self.shape = tuple(shape)
        size = int(np.prod(shape))
        self.index = np.empty(size, np.int32 if grid.num_nodes < 2**31 else np.intp)
        self.offsets = np.empty((grid.dim, size))
        s = 0
        for blk in blocks:
            flat = np.asarray(blk, dtype=float).reshape(-1, grid.dim)
            # in slices, so that the temporaries stay small
            for part in np.array_split(flat, range(_BLOCK, len(flat), _BLOCK)):
                if not np.all(np.isfinite(part)):
                    raise InputError("evaluation points must be finite")
                sl = slice(s, s + len(part))
                if grid.dim == 1:
                    self._locate_line(part[:, 0], sl)
                else:
                    self._locate_box(part, sl)
                s += len(part)
        if s != size:
            raise InputError(f"blocks hold {s} points, not the {size} of shape {self.shape}")

    def _locate_line(self, x: Array, sl: slice) -> None:
        axis = self.grid.axes[0]
        j = np.searchsorted(axis, x, side="right") - 1
        np.clip(j, 0, len(axis) - 1, out=j)
        off = x - axis[j]
        off[(off < 0) | (j == len(axis) - 1)] = 0.0
        self.index[sl] = j
        self.offsets[0, sl] = off

    def _locate_box(self, pts: Array, sl: slice) -> None:
        g = self.grid
        cell = []
        for axis in range(2):
            u = np.clip((pts[:, axis] - g.lo[axis]) / g.spacing[axis], 0.0, g.n[axis] - 1)
            # snap float wobble so node queries reproduce node values bitwise
            near = np.rint(u)
            np.copyto(u, near, where=np.abs(u - near) < 1e-12)
            i = np.minimum(np.floor(u), g.n[axis] - 2)
            self.offsets[axis, sl] = u - i
            cell.append(i.astype(self.index.dtype))
        self.index[sl] = cell[0] * g.n[1] + cell[1]

    def apply(self, values: Array) -> Array:
        """Interpolated values at the points, shaped like the points, from the
        values of a field on the stencil's grid."""
        out = np.empty(self.index.shape[0])
        if self.grid.dim == 1:
            slope = np.append(np.diff(values) / np.diff(self.grid.axes[0]), 0.0)
        else:
            values = values.ravel()
            n1 = self.grid.n[1]
        for s in range(0, out.shape[0], _BLOCK):
            sl = slice(s, s + _BLOCK)
            k = self.index[sl]
            if self.grid.dim == 1:
                out[sl] = slope[k] * self.offsets[0, sl] + values[k]
            else:
                fx, fy = self.offsets[0, sl], self.offsets[1, sl]
                gx, gy = 1 - fx, 1 - fy
                out[sl] = (
                    values[k] * gx * gy
                    + values[k + n1] * fx * gy
                    + values[k + 1] * gx * fy
                    + values[k + n1 + 1] * fx * fy
                )
        return out.reshape(self.shape)


class ShiftStencil:
    """Where ``node + shift`` falls on a grid, for every node and each of a
    fixed set of shifts: the same cell shift and cell fractions at every node.

    ``shifts`` has shape (C, Q, d).  Per shift and axis it stores the integer
    cell shift ``k`` and the fraction ``f`` of ``shift / spacing = k + f``,
    snapped to a node within 1e-12 cells as ``Stencil`` snaps.  ``rows`` reads
    the edge-padded values through sliding windows, so that the values at
    ``node + shift`` for all nodes are one shifted window, and interpolates
    them as ``a + f (b - a)``: past the box ``b - a`` is exactly 0, so the
    padding reproduces the clamped extension exactly.
    """

    __slots__ = ("grid", "cells", "fracs", "pad")

    def __init__(self, grid: Grid, shifts):
        u = np.asarray(shifts, dtype=float) / np.asarray(grid.spacing)
        if not np.all(np.isfinite(u)):
            raise InputError("shifts must be finite")
        near = np.rint(u)
        np.copyto(u, near, where=np.abs(u - near) < 1e-12)
        cells = np.floor(u)
        self.fracs = np.moveaxis(u - cells, -1, 0)  # (d, C, Q)
        # a shift past the whole box clamps every node the same way, so
        # shifts beyond n cells need no more padding than n cells
        n = np.asarray(grid.n)
        cells = np.moveaxis(np.clip(cells, -n - 1, n), -1, 0).astype(np.intp)
        lo = np.maximum(0, -cells.min(axis=(1, 2)))
        hi = np.maximum(0, cells.max(axis=(1, 2)) + 1)
        self.grid = grid
        self.pad = tuple(zip(lo.tolist(), hi.tolist()))
        self.cells = cells + lo[:, None, None]  # window index of each shift

    def windows(self, values: Array) -> tuple:
        """Sliding windows over the edge-padded values and over their steps
        along the last axis; window ``k`` is the field shifted by ``k`` cells,
        in 2-d with one more row, the upper neighbour of the last."""
        padded = np.pad(values, self.pad, mode="edge")
        steps = np.diff(padded, axis=-1)
        shape = self.grid.shape if self.grid.dim == 1 else (self.grid.n[0] + 1, self.grid.n[1])
        return sliding_window_view(padded, shape), sliding_window_view(steps, shape)

    def rows(self, windows: tuple, start: int, end: int) -> Array:
        """Interpolated values at ``node + shift`` for the shifts
        ``start:end`` along the first axis, shaped (end - start, Q, *grid.shape)."""
        vals, steps = windows
        cols = slice(start, end)
        grid_axes = (...,) + (None,) * self.grid.dim
        k = tuple(self.cells[:, cols])
        out = steps[k]
        out *= self.fracs[-1, cols][grid_axes]
        out += vals[k]
        if self.grid.dim == 1:
            return out
        # along the last axis in every row and the row above, then between them
        upper = out[:, :, 1:] - out[:, :, :-1]
        upper *= self.fracs[0, cols][grid_axes]
        upper += out[:, :, :-1]
        return upper


def same_nodes(a: Grid, b: Grid) -> bool:
    """Same node counts and box.  The ends may differ by rounding far below
    the spacing, because ``load_csv`` rebuilds ``hi`` from the last node."""
    if a.n != b.n:
        return False
    ends = zip(a.lo + a.hi, b.lo + b.hi, a.spacing + a.spacing)
    return all(abs(u - v) <= 1e-9 * h for u, v, h in ends)


def sup_distance(f: ScalarField, g: ScalarField, window: Optional[CompactWindow] = None) -> float:
    if f.grid is not g.grid and not same_nodes(f.grid, g.grid):
        raise InputError("fields live on different grids")
    return ScalarField(f.grid, f.values - g.values).sup_norm(window)


def gradient_fd(field: ScalarField) -> tuple:
    """Per-axis finite-difference gradient fields.

    Central differences at interior nodes (second order for smooth data),
    one-sided at the boundary nodes.
    """
    g = field.grid
    grads = np.gradient(field.values, *g.spacing, edge_order=1)
    if g.dim == 1:
        grads = (grads,)
    return tuple(ScalarField(g, gr) for gr in grads)


def gradient_norm(field: ScalarField) -> ScalarField:
    comps = gradient_fd(field)
    sq = sum(c.values ** 2 for c in comps)
    return ScalarField(field.grid, np.sqrt(sq))


def lipschitz_estimate(field: ScalarField) -> float:
    """Largest axis-wise node-to-node slope; a lower bound on the Lipschitz
    constant of the underlying function that converges for smooth data."""
    g = field.grid
    best = 0.0
    for axis in range(g.dim):
        d = np.diff(field.values, axis=axis) / g.spacing[axis]
        if d.size:
            best = max(best, float(np.max(np.abs(d))))
    return best


def csv_columns(grid: Grid) -> list:
    return ["x", "y"][: grid.dim] + ["value"]


def write_rows(writer, field: ScalarField, prefix: Sequence[str] = ()) -> None:
    """Write one ``*prefix, x[, y], value`` row per node in C order, every
    number by ``repr`` so that the file round-trips exactly."""
    rows = np.column_stack([field.grid.nodes(), field.values.ravel()])
    for row in rows.tolist():
        writer.writerow([*prefix, *map(repr, row)])


def save_csv(field: ScalarField, path) -> None:
    """Dump as ``x[,y],value`` rows with a header; round-trips via load_csv."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(csv_columns(field.grid))
        write_rows(w, field)


def load_csv(path) -> ScalarField:
    """Read a ``save_csv`` file back.  Its rows must be the nodes of a
    uniform grid in C order, within 1e-9 of the spacing on every axis."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh)) or [[]]
    dim = len(header) - 1
    if header != ["x", "y"][:dim] + ["value"]:
        raise InputError(f"unrecognized field CSV header: {header}")
    try:
        data = np.array(rows, dtype=float).reshape(-1, dim + 1)
        pts = data[:, :dim]
        n = [len(np.unique(column)) for column in pts.T]
        grid = Grid(tuple(pts.min(axis=0)), tuple(pts.max(axis=0)), tuple(n))
    except ValueError as e:
        raise InputError(f"unreadable field CSV rows: {e}") from None
    if grid.num_nodes != len(pts) or np.any(
        np.abs(grid.nodes() - pts) > 1e-9 * np.asarray(grid.spacing)
    ):
        raise InputError("CSV rows are not the nodes of a uniform grid in C order")
    return ScalarField(grid, data[:, dim])
