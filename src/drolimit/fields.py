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

    def eval(self, x) -> Array:
        """Interpolate at points ``x`` of shape (d,) or (..., d) (or bare
        floats in 1-d).  Outside the box the nearest boundary value is used."""
        pts = np.asarray(x, dtype=float)
        if self.grid.dim == 1 and pts.ndim > 1 and pts.shape[-1] == 1:
            pts = pts[..., 0]
        elif self.grid.dim == 2 and pts.shape[-1:] != (2,):
            raise InputError(f"points on a 2-d grid need a last axis of 2, got shape {pts.shape}")
        shape = pts.shape if self.grid.dim == 1 else pts.shape[:-1]
        out = Stencil(self.grid, shape, [pts]).apply(self.values)
        return float(out) if out.ndim == 0 else out

    def sup_norm(self, window: Optional[CompactWindow] = None) -> float:
        if window is None:
            return float(np.max(np.abs(self.values)))
        return float(np.max(np.abs(self.values[window.mask(self.grid)])))

    def __repr__(self):
        return f"ScalarField(dim={self.grid.dim}, n={self.grid.n}, sup={self.sup_norm():.3g})"


_BLOCK = 1 << 14  # points per block, so that temporaries stay in cache


def _cells(u: Array) -> tuple:
    """The cells and cell fractions of positions ``u`` in cell units, with
    ``u = cells + fracs`` and ``0 <= fracs < 1``, once ``u`` is snapped to a
    node within 1e-12 cells so that node queries reproduce node values
    bitwise."""
    near = np.rint(u)
    u = np.where(np.abs(u - near) < 1e-12, near, u)
    cells = np.floor(u)
    return cells, u - cells


def _padded(values: Array, pad) -> tuple:
    """The edge-padded values and their steps along the last axis, both as
    wide as the steps.  Past the box every step is exactly 0, so that
    ``a + f (b - a)`` there is exactly the boundary value: the padding
    reproduces the clamped extension exactly."""
    padded = np.pad(values, pad, mode="edge")
    return padded[..., :-1], np.diff(padded, axis=-1)


class Stencil:
    """Where fixed points fall on a grid, found once and applied to any field
    on that grid by gathers and arithmetic.

    The points are those that ``blocks`` yields one after another, shaped
    ``shape``; they need never be held all at once.  Per point it stores
    ``index``, the flat lower corner of its cell in the values padded by one
    node, and ``fracs`` (d, P), its cell fractions.  The rule is
    ``ShiftStencil``'s: positions in cells from ``lo``, clipped to
    [-1, n - 1] and located by ``_cells``, then ``a + f (b - a)`` on the
    edge-padded values along the last axis, in 2-d in the cell's row and the
    row above, then ``lower + f (upper - lower)`` between the two.
    """

    __slots__ = ("grid", "shape", "index", "fracs")

    def __init__(self, grid: Grid, shape: tuple, blocks):
        self.grid = grid
        self.shape = tuple(shape)
        size = int(np.prod(shape))
        n = np.asarray(grid.n)
        # flat strides of the padded values: n[0] + 2 rows of n[-1] + 1
        strides = np.array([n[-1] + 1, 1][-grid.dim:])
        self.index = np.empty(size, np.int32 if (n[0] + 2) * strides[0] < 2**31 else np.intp)
        self.fracs = np.empty((grid.dim, size))
        lo, h = np.asarray(grid.lo)[:, None], np.asarray(grid.spacing)[:, None]
        s = 0
        for blk in blocks:
            flat = np.asarray(blk, dtype=float).reshape(-1, grid.dim)
            # in slices, so that the temporaries stay small
            for part in np.array_split(flat, range(_BLOCK, len(flat), _BLOCK)):
                if not np.all(np.isfinite(part)):
                    raise InputError("evaluation points must be finite")
                sl = slice(s, s + len(part))
                u = np.clip((part.T - lo) / h, -1.0, n[:, None] - 1.0)
                cells, self.fracs[:, sl] = _cells(u)
                self.index[sl] = strides @ (cells + 1)
                s += len(part)
        if s != size:
            raise InputError(f"blocks hold {s} points, not the {size} of shape {self.shape}")

    def windows(self, values: Array) -> tuple:
        """The values padded by one node and their steps along the last axis,
        both flat."""
        return tuple(a.ravel() for a in _padded(values, 1))

    def run_max(self, windows: tuple, start: int, end: int, out: Array) -> None:
        """Write into ``out``, shaped ``shape[1:]``, the max of the
        interpolated values over the points ``start:end`` along the first
        axis of ``shape``; the run's values are read at once."""
        rows = self._interpolate(windows, start * out.size, end * out.size)
        np.maximum.reduce(rows.reshape((end - start,) + out.shape), axis=0, out=out)

    def apply(self, values: Array) -> Array:
        """Interpolated values at the points, shaped like the points, from the
        values of a field on the stencil's grid."""
        return self._interpolate(self.windows(values), 0, self.index.size).reshape(self.shape)

    def _interpolate(self, windows: tuple, start: int, end: int) -> Array:
        """Interpolated values at the flat points ``start:end``, a block at a
        time, so that the temporaries stay in cache."""
        vals, steps = windows
        out = np.empty(end - start)
        for s in range(start, end, _BLOCK):
            sl = slice(s, min(s + _BLOCK, end))
            k = self.index[sl]
            lower = out[s - start:sl.stop - start]
            np.multiply(steps[k], self.fracs[-1, sl], out=lower)
            lower += vals[k]
            if self.grid.dim == 2:
                # the same in the row above, then between the two rows
                k = k + (self.grid.n[1] + 1)
                upper = steps[k]
                upper *= self.fracs[-1, sl]
                upper += vals[k]
                upper -= lower
                upper *= self.fracs[0, sl]
                lower += upper
        return out


class ShiftStencil:
    """Where ``node + shift`` falls on a grid, for every node and each of a
    fixed set of shifts: the same cell shift and cell fractions at every node.

    ``shifts`` has shape (C, Q, d): Q shifts (one per atom) for each of C
    candidates.  Per shift and axis it stores the integer cell shift ``k``
    and the fraction ``f`` of ``shift / spacing = k + f``, located by
    ``_cells`` as ``Stencil`` locates its points.  ``run_max`` reads the
    edge-padded values through sliding windows along the last axis, so that
    the values at ``node + shift`` for all nodes are one shifted window (in
    2-d, a block of shifted rows), and interpolates them as ``Stencil``
    does, ``a + f (b - a)``.

    Bilinear interpolation is separable.  In 2-d the stencil keeps in
    ``lerps``, per candidate, its atoms grouped by their (cell, fraction)
    along the last axis.  ``run_max`` lerps each group's rows once along the
    last axis, ``A = steps f + vals`` on the rows its atoms read, then per
    atom between rows, ``dA[x:x + n0] f + A[x:x + n0]`` with
    ``dA = A[1:] - A[:-1]``, and folds the result into the run's max one
    candidate at a time.  These are ``Stencil``'s operations in its order,
    so both give the same bits.
    """

    __slots__ = ("grid", "cells", "fracs", "pad", "lerps")

    def __init__(self, grid: Grid, shifts):
        u = np.asarray(shifts, dtype=float) / np.asarray(grid.spacing)
        if not np.all(np.isfinite(u)):
            raise InputError("shifts must be finite")
        cells, fracs = _cells(u)
        self.fracs = np.moveaxis(fracs, -1, 0)  # (d, C, Q)
        # a shift past the whole box clamps every node the same way, so
        # shifts beyond n cells need no more padding than n cells
        n = np.asarray(grid.n)
        cells = np.moveaxis(np.clip(cells, -n - 1, n), -1, 0).astype(np.intp)
        lo = np.maximum(0, -cells.min(axis=(1, 2)))
        hi = np.maximum(0, cells.max(axis=(1, 2)) + 1)
        self.grid = grid
        self.pad = tuple(zip(lo.tolist(), hi.tolist()))
        self.cells = cells + lo[:, None, None]  # window index of each shift
        self.lerps = None if grid.dim == 1 else [
            self._lerps(rows, cols, fx, fy)
            for rows, cols, fx, fy in zip(*self.cells.tolist(), *self.fracs.tolist())
        ]

    def _lerps(self, rows: list, cols: list, fx: list, fy: list) -> list:
        """One candidate's atoms grouped by their window column and fraction
        along the last axis: per group ``(col, fy, lo, hi, atoms)``, the
        padded rows ``lo:hi`` its atoms read and, per atom, ``(q, x, fx)``,
        its first row ``lo + x`` and its fraction between rows."""
        groups: dict = {}
        for q, key in enumerate(zip(cols, fy)):
            groups.setdefault(key, []).append(q)
        table = []
        for (col, f), atoms in groups.items():
            lo = min(rows[q] for q in atoms)
            hi = max(rows[q] for q in atoms) + self.grid.n[0] + 1
            table.append((col, f, lo, hi, [(q, rows[q] - lo, fx[q]) for q in atoms]))
        return table

    def windows(self, values: Array) -> tuple:
        """Sliding windows along the last axis over the edge-padded values and
        over their steps; in 1-d window ``k`` is the field shifted by ``k``
        cells, in 2-d ``[i, k]`` is padded row ``i`` shifted by ``k``."""
        return tuple(
            sliding_window_view(a, self.grid.n[-1], axis=-1) for a in _padded(values, self.pad)
        )

    def run_max(self, windows: tuple, start: int, end: int, out: Array) -> None:
        """Write into ``out``, shaped (Q, *grid.shape), the max of the
        interpolated values at ``node + shift`` over the candidates
        ``start:end``.  In 1-d the run's (end - start, Q, n) values are read
        at once; in 2-d each candidate and atom is folded in on its own, so
        that no array larger than the padded values is made."""
        vals, steps = windows
        if self.lerps is None:
            k = self.cells[0, start:end]
            rows = steps[k]
            rows *= self.fracs[0, start:end, :, None]
            rows += vals[k]
            np.maximum.reduce(rows, axis=0, out=out)
            return
        n0 = self.grid.n[0]
        outs = list(out)
        scratch = np.empty(self.grid.shape)
        for c in range(start, end):
            for col, fy, lo, hi, atoms in self.lerps[c]:
                lerp = steps[lo:hi, col] * fy
                lerp += vals[lo:hi, col]
                step = lerp[1:] - lerp[:-1]
                for q, x, fx in atoms:
                    # the run's first candidate is written in place
                    rows = outs[q] if c == start else scratch
                    np.multiply(step[x:x + n0], fx, out=rows)
                    rows += lerp[x:x + n0]
                    if c > start:
                        np.maximum(outs[q], scratch, out=outs[q])


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
