import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drolimit import (
    CompactWindow,
    Grid,
    InputError,
    ScalarField,
    gradient_fd,
    lipschitz_estimate,
    load_csv,
    save_csv,
    sup_distance,
)
from drolimit.fields import ShiftStencil, Stencil


def test_grid_nodes_exact():
    g = Grid(-8.0, 8.0, 513)
    assert g.dim == 1
    assert g.spacing[0] == pytest.approx(16.0 / 512)
    assert g.axes[0][0] == -8.0
    assert g.axes[0][-1] == 8.0
    assert g.axes[0][256] == 0.0


def test_grid_mesh_and_nodes_c_order():
    # the last axis varies fastest, in the mesh and in the node list alike
    g = Grid((-1.0, 0.0), (1.0, 2.0), (9, 11))
    xx, yy = g.mesh()
    assert xx.shape == yy.shape == g.shape
    assert np.array_equal(xx[:, 0], g.axes[0]) and np.array_equal(yy[0], g.axes[1])
    nodes = g.nodes()
    assert nodes.shape == (99, 2)
    assert np.array_equal(nodes[:11, 1], g.axes[1]) and np.all(nodes[:11, 0] == -1.0)
    assert np.array_equal(nodes[::11, 0], g.axes[0])
    line = Grid(-1.0, 1.0, 9)
    assert np.array_equal(line.mesh()[0], line.axes[0])
    assert np.array_equal(line.nodes(), line.axes[0][:, None])


def test_grid_refined():
    # same box, every spacing halved, every old node kept exactly
    g = Grid((-1.0, 0.0), (1.3, 2.0), (9, 11))
    fine = g.refined()
    assert fine.n == (17, 21) and fine.lo == g.lo and fine.hi == g.hi
    for coarse_ax, fine_ax in zip(g.axes, fine.axes):
        assert np.array_equal(fine_ax[::2], coarse_ax)


def test_grid_validation():
    with pytest.raises(InputError):
        Grid(1.0, -1.0, 64)
    with pytest.raises(InputError):
        Grid(0.0, 1.0, 4)
    with pytest.raises(InputError):
        Grid((0, 0, 0), (1, 1, 1), (16, 16, 16))


def test_eval_constant_field():
    g = Grid(-1.0, 1.0, 32)
    f = ScalarField(g, np.full(g.shape, 3.0))
    assert f.eval(0.37) == 3.0


def test_eval_node_hit_sin():
    g = Grid(-math.pi, math.pi, 513)
    f = ScalarField.from_function(g, np.sin)
    assert abs(f.eval(0.0)) <= 1e-12


def test_eval_clamp_outside_box():
    g = Grid(-math.pi, math.pi, 513)
    f = ScalarField.from_function(g, np.sin)
    # outside the box the boundary node value (sin(pi) ~ 1e-16) is returned
    assert f.eval(math.pi + 5.0) == f.values[-1]
    assert abs(f.eval(math.pi + 5.0)) <= 1e-12


def test_eval_reproduces_nodes_bitwise():
    rng = np.random.default_rng(0)
    g = Grid(-2.3, 1.7, 61)
    f = ScalarField(g, rng.standard_normal(g.shape))
    assert np.array_equal(f.eval(g.axes[0]), f.values)


@settings(max_examples=30, deadline=None)
@given(st.floats(-5, 5), st.floats(1e-6, 0.5))
def test_eval_lipschitz_in_values(x, eps):
    g = Grid(-4.0, 4.0, 65)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(g.shape)
    f = ScalarField(g, vals)
    bumped = ScalarField(g, vals + eps)
    assert abs(bumped.eval(x) - f.eval(x)) <= eps + 1e-15


def test_sup_norm():
    g = Grid(-math.pi, math.pi, 257)
    cos = ScalarField.from_function(g, np.cos)
    assert cos.sup_norm() == pytest.approx(1.0)
    assert ScalarField(g, np.full(g.shape, -2.0)).sup_norm() == 2.0
    g2 = Grid(-1.0, 1.0, 257)
    ident = ScalarField.from_function(g2, lambda x: x)
    w = CompactWindow((-0.5,), (0.5,))
    assert ident.sup_norm(w) == pytest.approx(0.5, abs=g2.spacing[0])


def test_window_margin_enforced():
    g = Grid(-8.0, 8.0, 65)
    with pytest.raises(InputError):
        CompactWindow((-7.5,), (7.5,)).mask(g)
    CompactWindow((-4.0,), (4.0,)).mask(g)  # fine


def test_gradient_fd():
    g = Grid(-2.0, 2.0, 513)
    const = ScalarField(g, np.full(g.shape, 1.0))
    assert gradient_fd(const)[0].sup_norm() == 0.0
    affine = ScalarField.from_function(g, lambda x: 2.0 * x)
    interior = gradient_fd(affine)[0].values[1:-1]
    assert np.allclose(interior, 2.0, atol=1e-12)
    sin = ScalarField.from_function(Grid(-math.pi, math.pi, 2049), np.sin)
    at0 = gradient_fd(sin)[0].eval(0.0)
    assert at0 == pytest.approx(1.0, abs=1e-5)


def test_gradient_fd_kink_away_from_node():
    g = Grid(-1.0, 1.0, 513)
    f = ScalarField.from_function(g, np.abs)
    d = gradient_fd(f)[0]
    assert d.eval(0.5) == pytest.approx(1.0, abs=1e-6)


def test_lipschitz_estimate():
    g = Grid(-1.0, 1.0, 257)
    assert lipschitz_estimate(ScalarField(g, np.full(g.shape, 4.0))) == 0.0
    assert lipschitz_estimate(ScalarField.from_function(g, lambda x: 2.0 * x)) == pytest.approx(2.0)
    gs = Grid(-math.pi, math.pi, 4097)
    assert lipschitz_estimate(ScalarField.from_function(gs, np.sin)) == pytest.approx(1.0, abs=1e-5)


def test_sup_distance_zero_iff_equal():
    g = Grid(0.0, 1.0, 16)
    rng = np.random.default_rng(1)
    a = ScalarField(g, rng.standard_normal(g.shape))
    b = ScalarField(g, a.values.copy())
    assert sup_distance(a, b) == 0.0
    c = ScalarField(g, a.values + 1e-12)
    assert sup_distance(a, c) > 0.0


def test_sup_distance_checks_grid_box(tmp_path):
    a = ScalarField(Grid(0.0, 1.0, 9), np.ones(9))
    with pytest.raises(InputError):
        sup_distance(a, ScalarField(Grid(5.0, 6.0, 9), np.zeros(9)))
    with pytest.raises(InputError):
        sup_distance(a, ScalarField(Grid(0.0, 1.0, 17), np.ones(17)))
    # a field read back from CSV has hi rebuilt from its last node (here
    # 1.2999999999999998) and still compares with the field it was saved from
    fresh = ScalarField.from_function(Grid(-1.0, 1.3, 33), np.tanh)
    save_csv(fresh, tmp_path / "f.csv")
    back = load_csv(tmp_path / "f.csv")
    assert back.grid.hi != fresh.grid.hi
    assert sup_distance(back, fresh) == 0.0


def test_csv_roundtrip_1d(tmp_path):
    g = Grid(-1.0, 1.0, 33)
    f = ScalarField.from_function(g, np.tanh)
    path = tmp_path / "field.csv"
    save_csv(f, path)
    back = load_csv(path)
    assert back.grid.n == g.n
    assert np.allclose(back.values, f.values, atol=0, rtol=0)
    save_csv(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_csv_roundtrip_2d(tmp_path):
    g = Grid((-1.0, 0.0), (1.0, 2.0), (9, 11))
    f = ScalarField.from_function(g, lambda x, y: x * y)
    path = tmp_path / "field2.csv"
    save_csv(f, path)
    back = load_csv(path)
    assert back.grid.n == g.n
    assert np.allclose(back.values, f.values)
    assert np.array_equal(back.values, f.values)
    save_csv(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_load_csv_refuses_rows_off_the_grid(tmp_path):
    g = Grid((-1.0, 0.0), (1.0, 2.0), (9, 11))
    xx, yy = g.mesh()
    vals = xx + 10.0 * yy

    def write(name, rows):
        path = tmp_path / name
        path.write_text("x,y,value\n" + "".join(f"{x!r},{y!r},{v!r}\n" for x, y, v in rows))
        return path

    c_order = list(zip(xx.ravel().tolist(), yy.ravel().tolist(), vals.ravel().tolist()))
    assert np.array_equal(load_csv(write("c.csv", c_order)).values, vals)
    # one column of nodes (x = 0.25) moved a third of a cell off the grid
    h = g.spacing[0]
    moved = [(x + h / 3 if x == 0.25 else x, y, v) for x, y, v in c_order]
    with pytest.raises(InputError, match="uniform grid in C order"):
        load_csv(write("moved.csv", moved))
    # the nodes of the grid, but y-major: read in C order they would land on
    # the wrong nodes
    y_major = list(zip(xx.T.ravel().tolist(), yy.T.ravel().tolist(), vals.T.ravel().tolist()))
    with pytest.raises(InputError, match="uniform grid in C order"):
        load_csv(write("ymajor.csv", y_major))
    # and 1-d rows out of order
    line = [(x, 0.0) for x in np.linspace(0.0, 1.0, 9).tolist()]
    line[2], line[3] = line[3], line[2]
    path = tmp_path / "line.csv"
    path.write_text("x,value\n" + "".join(f"{x!r},{v!r}\n" for x, v in line))
    with pytest.raises(InputError, match="uniform grid in C order"):
        load_csv(path)


def test_bilinear_affine_exact_and_clamped():
    g = Grid((-2.0, -3.0), (2.0, 3.0), (16, 24))
    f = ScalarField.from_function(g, lambda x, y: 1.5 * x - 0.7 * y + 0.2)
    rng = np.random.default_rng(3)
    pts = rng.uniform((-2, -3), (2, 3), size=(100, 2))
    assert np.max(np.abs(f.eval(pts) - (1.5 * pts[:, 0] - 0.7 * pts[:, 1] + 0.2))) < 1e-12
    # clamped corner
    assert f.eval(np.array([10.0, 10.0])) == pytest.approx(f.values[-1, -1])
    # node exactness
    nodes = g.nodes()
    assert np.array_equal(f.eval(nodes).reshape(g.shape), f.values)


def one_rule(g, values, pts):
    """The stencils' rule written out: the position in cells from ``lo``,
    snapped to a node within 1e-12 cells, floored to its cell, the cell
    clipped to [-1, n - 1] in values edge-padded by one node, then
    ``a + f (b - a)`` along the last axis and, in 2-d, the same between the
    cell's row and the row above."""
    u = (np.reshape(pts, (-1, g.dim)) - g.lo) / g.spacing
    near = np.rint(u)
    u = np.where(np.abs(u - near) < 1e-12, near, u)
    cells = np.floor(u)
    f = u - cells
    i = np.clip(cells, -1, np.array(g.n) - 1).astype(int) + 1
    v = np.pad(values, 1, mode="edge")

    def lerp(a, b, t):
        return a + t * (b - a)

    if g.dim == 1:
        return lerp(v[i[:, 0]], v[i[:, 0] + 1], f[:, 0])
    lower = lerp(v[i[:, 0], i[:, 1]], v[i[:, 0], i[:, 1] + 1], f[:, 1])
    upper = lerp(v[i[:, 0] + 1, i[:, 1]], v[i[:, 0] + 1, i[:, 1] + 1], f[:, 1])
    return lerp(lower, upper, f[:, 0])


def test_stencil_matches_np_interp_1d():
    g = Grid(-2.0, 3.0, 41)
    f = ScalarField.from_function(g, lambda x: np.sin(2 * x) + 0.1 * x ** 2)
    rng = np.random.default_rng(5)
    on_nodes = rng.integers(0, 41, 50)
    pts = np.concatenate([
        rng.uniform(-4.0, 5.0, 500),            # both sides of the box
        g.axes[0][on_nodes],                    # exactly on nodes
        [-2.0, 3.0, -2.5, 3.5],                 # both ends, and beyond them
    ])
    out = Stencil(g, pts.shape, [pts]).apply(f.values)
    assert np.array_equal(out, one_rule(g, f.values, pts))
    assert np.max(np.abs(out - np.interp(pts, g.axes[0], f.values))) <= 1e-15
    # node values, and both clamps, exactly
    assert np.array_equal(out[500:550], f.values[on_nodes])
    assert np.array_equal(out[550:], f.values[[0, -1, 0, -1]])
    assert np.all(out[pts < -2.0] == f.values[0]) and np.all(out[pts > 3.0] == f.values[-1])
    # shaped points, with and without the trailing axis of length 1
    shaped = pts[:552].reshape(6, 92)
    expected = one_rule(g, f.values, shaped).reshape(6, 92)
    assert np.array_equal(f.eval(shaped), expected)
    assert np.array_equal(f.eval(shaped[..., None]), expected)
    # a 0-d scalar gives a float
    value = f.eval(0.3)
    assert isinstance(value, float) and value == one_rule(g, f.values, 0.3)[0]
    assert abs(value - np.interp(0.3, g.axes[0], f.values)) <= 1e-15


def test_stencil_matches_bilinear_2d():
    g = Grid((-2.0, -3.0), (2.0, 3.0), (16, 24))
    f = ScalarField.from_function(g, lambda x, y: np.sin(x) * np.cos(y) + 0.2 * x * y)
    rng = np.random.default_rng(6)
    on_nodes = rng.integers(0, g.num_nodes, 60)
    nodes = g.nodes()[on_nodes]
    pts = np.concatenate([
        rng.uniform((-3.0, -4.0), (3.0, 4.0), (400, 2)),    # clamped outside
        nodes + rng.uniform(-1e-13, 1e-13, nodes.shape),    # snapped to nodes
        [[2.0, 3.0], [-2.0, -3.0], [9.0, -9.0]],
    ])
    out = Stencil(g, (len(pts),), [pts]).apply(f.values)
    assert np.array_equal(out, one_rule(g, f.values, pts))
    assert np.array_equal(out[400:460], f.values.flat[on_nodes])
    assert np.array_equal(out[460:], f.values[[-1, 0, -1], [-1, 0, 0]])


def test_stencil_at_shifted_nodes_matches_shift_stencil():
    # on a dyadic grid, with shifts that are multiples of 1/64 (some past the
    # whole box), every point node + shift is exact, so both stencils locate
    # it alike and interpolate it to the same bits
    rng = np.random.default_rng(8)
    for g in (Grid(-4.0, 4.0, 33), Grid((-4.0, -4.0), (4.0, 4.0), (33, 33))):
        shifts = rng.integers(-700, 701, (5, 3, g.dim)) / 64.0
        shifts[0, 0] = 9.5
        shifts[0, 1] = -10.0
        f = ScalarField(g, rng.standard_normal(g.shape))
        pts = (shifts[:, :, None, :] + g.nodes()).reshape(shifts.shape[:2] + g.shape + (g.dim,))
        point, shift = Stencil(g, pts.shape[:-1], [pts]), ShiftStencil(g, shifts)

        def run_max(st, start, end):
            out = np.empty((3,) + g.shape)
            st.run_max(st.windows(f.values), start, end, out)
            return out

        expected = np.stack([run_max(shift, c, c + 1) for c in range(5)])
        assert np.array_equal(point.apply(f.values), expected)
        for start, end in [(0, 5), (2, 4), (3, 4)]:
            assert np.array_equal(run_max(point, start, end), np.max(expected[start:end], axis=0))
            assert np.array_equal(run_max(shift, start, end), np.max(expected[start:end], axis=0))


def test_stencil_locates_by_the_rule_in_one_block_or_three():
    # the position in cells from lo, clipped to [-1, n - 1], snapped to a node
    # within 1e-12 cells and floored, written out: the stencil gives the same
    # index and fractions, bitwise, from the points in one block or in three,
    # and leaves the caller's points and shifts as they were
    rng = np.random.default_rng(9)
    for g in (Grid(-4.0, 4.0, 65), Grid((-4.0, -4.0), (4.0, 5.0), (33, 41))):
        nodes = g.nodes()[rng.integers(0, g.num_nodes, 20000)]
        pts = np.concatenate([
            rng.uniform(-6.0, 7.0, (20000, g.dim)),                     # past the box too
            nodes + rng.uniform(-1e-12, 1e-12, nodes.shape) * g.spacing,  # snapped to nodes
            [[1e3] * g.dim, [-1e3] * g.dim],
        ])
        u = (pts.T - np.array(g.lo)[:, None]) / np.array(g.spacing)[:, None]
        u = np.clip(u, -1.0, np.array(g.n)[:, None] - 1.0)
        near = np.rint(u)
        u = np.where(np.abs(u - near) < 1e-12, near, u)
        cells = np.floor(u)
        index = np.array([g.n[-1] + 1, 1][-g.dim:]) @ (cells + 1)
        given = pts.copy()
        one, three = (Stencil(g, (len(pts),), blocks) for blocks in ([pts], np.array_split(pts, 3)))
        assert np.array_equal(one.index, index) and np.array_equal(one.fracs, u - cells)
        assert np.array_equal(three.index, one.index) and np.array_equal(three.fracs, one.fracs)
        assert np.array_equal(pts, given)
        shifts = pts[:30].reshape(5, 6, g.dim)
        ShiftStencil(g, shifts)
        assert np.array_equal(shifts, given[:30].reshape(5, 6, g.dim))


def test_stencil_reused_across_fields():
    for g, pts in [
        (Grid(0.0, 1.0, 17), np.linspace(-0.2, 1.2, 57)),
        (Grid((0.0, 0.0), (1.0, 2.0), (9, 12)), np.random.default_rng(7).uniform(-0.1, 2.1, (80, 2))),
    ]:
        stencil = Stencil(g, (len(pts),), [pts])
        for seed in (1, 2):
            f = ScalarField(g, np.random.default_rng(seed).standard_normal(g.shape))
            assert np.array_equal(stencil.apply(f.values), f.eval(pts))


def test_eval_on_2d_field_refuses_points_without_a_last_axis_of_2():
    g = Grid((0.0, 0.0), (1.0, 1.0), (9, 9))
    f = ScalarField(g, np.ones(g.shape))
    for x in (0.5, [0.1, 0.2, 0.3], np.zeros((4, 3))):
        with pytest.raises(InputError, match="last axis of 2"):
            f.eval(x)
    assert f.eval([0.1, 0.2]) == 1.0
    assert f.eval(np.zeros((3, 4, 2))).shape == (3, 4)


def test_nonfinite_rejected():
    g = Grid(0.0, 1.0, 16)
    with pytest.raises(InputError):
        ScalarField(g, np.full(g.shape, np.nan))
    f = ScalarField(g, np.full(g.shape, 1.0))
    with pytest.raises(InputError):
        f.eval(np.nan)


def _written(tmp_path, text):
    path = tmp_path / "field.csv"
    path.write_text(text)
    return path


@pytest.mark.parametrize("call, message", [
    (lambda tmp_path: Grid((0.0,), (1.0, 2.0), (9,)), "expected 1 per-axis entries, got 2"),
    (lambda tmp_path: Grid((0.0,), (1.0,), (9, 9)), "expected 1 per-axis entries, got 2"),
    (lambda tmp_path: CompactWindow((1.0,), (1.0,)), r"window needs lo < hi, got \[1.0, 1.0\]"),
    (lambda tmp_path: CompactWindow((-1.0, -1.0), (1.0, 1.0)).validate_for(Grid(-8.0, 8.0, 65)),
     "window dimension does not match grid"),
    (lambda tmp_path: Stencil(Grid(-8.0, 8.0, 65), (3,), [np.zeros(2)]),
     r"blocks hold 2 points, not the 3 of shape \(3,\)"),
    (lambda tmp_path: ShiftStencil(Grid(-8.0, 8.0, 65), [[[np.inf]]]), "shifts must be finite"),
    (lambda tmp_path: load_csv(_written(tmp_path, "x,v\n0.0,1.0\n")),
     r"unrecognized field CSV header: \['x', 'v'\]"),
    (lambda tmp_path: load_csv(_written(tmp_path, "x,value\n0.0,one\n")), "unreadable field CSV rows"),
])
def test_field_refusals(tmp_path, call, message):
    with pytest.raises(InputError, match=message):
        call(tmp_path)
