"""Unit tests for displacement interpolation, the single-Dirac metric and
the diffusion texture demo."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import merge_atoms_loop, random_instance, random_psd

from qot.interpolate import (
    InterpolationParams,
    _grid_shape,
    _merge_atoms,
    anisotropic_diffuse,
    displacement_interpolate,
    single_dirac_distance,
)
from qot.measure import Coupling, TensorMeasure, primal_objective
from qot.solver import SolverConfig, sinkhorn_solve


def solved_instance(seed=3, rows=5, cols=5):
    rng = np.random.default_rng(seed)
    mu, nu, cost = random_instance(rng, rows, cols, 2)
    cfg = SolverConfig(eps=0.05, tol=1e-11, max_iter=30000)
    coupling, _, report = sinkhorn_solve(mu, nu, cost, cfg)
    assert report.converged
    return mu, nu, coupling


class TestParams:
    def test_t_range(self):
        with pytest.raises(ValueError):
            InterpolationParams(t=1.5)
        with pytest.raises(ValueError):
            InterpolationParams(t=0.5, merge_radius=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("trace_threshold", math.nan),
        ("trace_threshold", math.inf),
        ("merge_radius", math.nan),
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            InterpolationParams(t=0.5, **{field: value})

    def test_infinite_radius_accepted(self):
        assert InterpolationParams(t=0.5, merge_radius=math.inf).merge_radius == math.inf


class TestEndpoints:
    def test_t0_recovers_mu(self):
        mu, nu, coupling = solved_instance()
        params = InterpolationParams(t=0.0, trace_threshold=0.0,
                                     merge_radius=1e-9)
        out = displacement_interpolate(mu, nu, coupling, params)
        assert out.n_atoms == mu.n_atoms
        order = np.lexsort(mu.points.T)
        order_out = np.lexsort(out.points.T)
        assert np.allclose(out.points[order_out], mu.points[order])
        err = np.linalg.norm(
            out.tensors[order_out] - mu.tensors[order], axis=(-2, -1)
        )
        assert err.max() < 1e-8

    def test_t1_recovers_nu(self):
        mu, nu, coupling = solved_instance(seed=5)
        params = InterpolationParams(t=1.0, trace_threshold=0.0,
                                     merge_radius=1e-9)
        out = displacement_interpolate(mu, nu, coupling, params)
        order = np.lexsort(nu.points.T)
        order_out = np.lexsort(out.points.T)
        assert np.allclose(out.points[order_out], nu.points[order])
        err = np.linalg.norm(
            out.tensors[order_out] - nu.tensors[order], axis=(-2, -1)
        )
        assert err.max() < 1e-8


class TestSinglePair:
    def test_constant_tensor_travels(self):
        rng = np.random.default_rng(7)
        p = random_psd(rng, 2)
        x0 = np.array([[0.0, 0.0]])
        y0 = np.array([[1.0, 1.0]])
        mu = TensorMeasure(x0, p[None])
        nu = TensorMeasure(y0, p[None])
        g = Coupling(p[None, None])
        for t in (0.0, 0.3, 0.7, 1.0):
            out = displacement_interpolate(
                mu, nu, g, InterpolationParams(t=t, trace_threshold=0.0)
            )
            assert out.n_atoms == 1
            assert np.allclose(out.points[0], [t, t])
            assert np.abs(out.tensors[0] - p).max() < 1e-12


class TestThresholdAndMerge:
    def test_neutral_settings_change_nothing(self):
        mu, nu, coupling = solved_instance(seed=11)
        base = displacement_interpolate(
            mu, nu, coupling, InterpolationParams(t=0.4, trace_threshold=0.0)
        )
        neutral = displacement_interpolate(
            mu, nu, coupling,
            InterpolationParams(t=0.4, trace_threshold=0.0, merge_radius=0.0),
        )
        assert base.n_atoms == mu.n_atoms * nu.n_atoms
        assert np.array_equal(base.points, neutral.points)
        assert np.array_equal(base.tensors, neutral.tensors)

    def test_threshold_drops_small_pairs(self):
        mu, nu, coupling = solved_instance(seed=13)
        out = displacement_interpolate(
            mu, nu, coupling, InterpolationParams(t=0.5, trace_threshold=1e-3)
        )
        assert out.n_atoms < mu.n_atoms * nu.n_atoms

    def test_coupling_shape_checked_as_by_the_primal(self):
        mu, nu, coupling = solved_instance(rows=3, cols=4)
        message = "coupling is 3x4 but measures have 4 and 3 atoms"
        with pytest.raises(ValueError, match=message):
            displacement_interpolate(nu, mu, coupling, InterpolationParams(0.5))
        with pytest.raises(ValueError, match=message):
            primal_objective(coupling, nu, mu, None, SolverConfig())

    def test_zero_mass_coupling_empty_measure(self):
        mu = TensorMeasure(np.zeros((1, 2)), np.eye(2)[None])
        nu = TensorMeasure(np.ones((1, 2)), np.eye(2)[None])
        g = Coupling(np.zeros((1, 1, 2, 2)))
        out = displacement_interpolate(mu, nu, g, InterpolationParams(t=0.5))
        assert out.n_atoms == 0

    def test_total_trace_between_endpoint_bounds(self):
        mu, nu, coupling = solved_instance(seed=17)
        params = [InterpolationParams(t=t, trace_threshold=0.0)
                  for t in np.linspace(0.0, 1.0, 7)]
        totals = [
            np.trace(
                displacement_interpolate(mu, nu, coupling, p).tensors,
                axis1=-2, axis2=-1,
            ).sum()
            for p in params
        ]
        lo = min(totals[0], totals[-1]) * 0.9
        hi = max(totals[0], totals[-1]) * 1.1
        assert all(lo <= s <= hi for s in totals)


@st.composite
def merge_cases(draw):
    """Atoms for ``_merge_atoms``: round-off-jittered clusters (with exact
    duplicates, clusters of 8 or more, zero-trace and negative-trace
    clusters), chains spaced 0.9 radius, and rings of atoms within a few
    ulps of the radius from a centre; some coordinates and tensor entries
    are -0.0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    radius = draw(st.one_of(
        st.sampled_from([1e-12, 1e-3, 3e-2, 0.3, math.inf]),
        st.floats(1e-12, 1e3)))
    layout = draw(st.sampled_from(["clusters", "chain", "ring"]))
    if layout == "chain":
        n = int(rng.integers(2, 60))
        step = 0.9 * radius if math.isfinite(radius) else 1.0
        points = np.zeros((n, k))
        points[:, 0] = np.arange(n) * step
        points[:, 1:] = rng.uniform(-0.4, 0.4, (n, k - 1)) * step
    elif layout == "ring" and math.isfinite(radius):
        n = int(rng.integers(2, 40))
        dirs = rng.standard_normal((n, k))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        ulps = 1.0 + rng.integers(-3, 4, (n, 1)) * 2.0**-52
        points = rng.uniform(-1, 1, k) + radius * dirs * ulps
        points[0] = points[1:].mean(axis=0) if n > 1 else points[0]
    else:
        sizes = rng.integers(1, 13, int(rng.integers(1, 6)))
        centres = rng.uniform(-1.0, 1.0, (len(sizes), k))
        points = np.repeat(centres, sizes, axis=0)
        points *= 1.0 + rng.integers(-4, 5, points.shape) * 2.0**-52
        points = points[rng.permutation(len(points))]
    n = len(points)
    kind = rng.integers(0, 3, n)  # 0: PSD, 1: zero, 2: indefinite
    tensors = random_psd(rng, d, n=n)
    tensors[kind == 1] = 0.0
    sym = rng.standard_normal((n, d, d))
    sym = sym + np.swapaxes(sym, -1, -2)
    tensors[kind == 2] = sym[kind == 2]
    tensors[rng.uniform(size=tensors.shape) < 0.1] = -0.0
    points[rng.uniform(size=points.shape) < 0.05] = -0.0
    points[rng.uniform(size=points.shape) < 0.05] = 0.0
    return points, tensors, radius


class TestMergeAtoms:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(merge_cases())
    def test_bytes_match_the_loop(self, case):
        points, tensors, radius = case
        want_points, want_tensors = merge_atoms_loop(points, tensors, radius)
        got_points, got_tensors = _merge_atoms(points, tensors, radius)
        assert got_points.tobytes() == want_points.tobytes()
        assert got_tensors.tobytes() == want_tensors.tobytes()
        assert got_points.shape == want_points.shape

    @pytest.mark.parametrize("layout", ["dense", "chain", "coarse_cells"])
    def test_many_blocks_match_the_loop(self, layout):
        # several blocks, and blocks cut short by the pair budget
        rng = np.random.default_rng(2)
        if layout == "dense":
            points, radius = rng.uniform(size=(3000, 2)), 0.05
        elif layout == "chain":
            points, radius = np.arange(6000.0)[:, None] * 0.9, 1.0
        else:  # 3-D cells far coarser than the radius, crowded
            points, radius = rng.uniform(size=(1500, 3)) * 1e-7, 1e-12
            points[0] = 1.0
        tensors = random_psd(rng, 2, n=len(points))
        want_points, want_tensors = merge_atoms_loop(points, tensors, radius)
        got_points, got_tensors = _merge_atoms(points, tensors, radius)
        assert got_points.tobytes() == want_points.tobytes()
        assert got_tensors.tobytes() == want_tensors.tobytes()

    @pytest.mark.parametrize("radius", [1e-300, 5e-324])
    def test_tiny_radius_merges_only_duplicates(self, radius):
        # runs with warnings as errors: the cell index must not overflow
        rng = np.random.default_rng(0)
        points = rng.uniform(size=(50, 2))
        points = np.concatenate(
            [points, points[:10], points[:5] * (1.0 + 2.0**-50)])
        tensors = random_psd(rng, 2, n=len(points))
        out_points, out_tensors = _merge_atoms(points, tensors, radius)
        assert len(out_points) == 55
        assert np.array_equal(out_tensors[:10], tensors[:10] + tensors[50:60])
        assert np.array_equal(out_tensors[50:], tensors[60:])

    def test_infinite_radius_is_one_cluster_in_bounded_memory(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(size=(20000, 2))
        tensors = random_psd(rng, 2, n=len(points))
        tracemalloc.start()
        try:
            out_points, out_tensors = _merge_atoms(points, tensors, math.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        weights = np.trace(tensors, axis1=-2, axis2=-1)
        assert out_points.shape == (1, 2)
        assert np.allclose(out_points[0], weights @ points / weights.sum())
        assert np.allclose(out_tensors[0], tensors.sum(axis=0))
        # all-pairs arrays for one 1024-atom block would take ~50 MB
        assert peak < 16 * 2**20

    def test_more_than_twelve_dimensions_rejected(self):
        # 3**13 cell probes per atom, and keys that would overflow int64
        with pytest.raises(ValueError, match="13 dimensions"):
            _merge_atoms(np.zeros((2, 13)), np.ones((2, 1, 1)), 0.1)

    def test_infinite_radius_interpolates_to_one_atom(self):
        mu, nu, coupling = solved_instance(seed=11)
        out = displacement_interpolate(
            mu, nu, coupling,
            InterpolationParams(t=0.4, trace_threshold=0.0, merge_radius=math.inf))
        assert out.n_atoms == 1


class TestSingleDiracDistance:
    def test_identical_inputs(self):
        rng = np.random.default_rng(19)
        p = random_psd(rng, 2)
        assert single_dirac_distance(p, p) < 1e-12

    def test_commuting_case_sqrt_frobenius(self):
        p = np.diag([4.0, 1.0])
        q = np.diag([1.0, 4.0])
        assert abs(single_dirac_distance(p, q) - math.sqrt(2.0)) < 1e-10

    def test_scalar_case(self):
        assert abs(single_dirac_distance([[4.0]], [[1.0]]) - 1.0) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = random_psd(rng, 2)
            q = random_psd(rng, 2)
            d_pq = single_dirac_distance(p, q)
            d_qp = single_dirac_distance(q, p)
            assert abs(d_pq - d_qp) < 1e-12

    @pytest.mark.parametrize("s", [1.0, 1e10, 1e100, 1e300])
    def test_near_equal_pair_at_any_scale(self, s):
        # One entry differs by 1e-13 relative: at every scale the result is
        # round-off of the radicand, never a NumericalConsistencyError.
        p = s * np.array([[2.0, 0.3], [0.3, 1.0]])
        q = s * np.array([[2.0, 0.3], [0.3, 1.0 + 1e-13]])
        assert single_dirac_distance(p, q) < 1e-7 * math.sqrt(s)

    def test_tiny_commuting_pair(self):
        p, q = 1e-20 * np.diag([4.0, 1.0]), 1e-20 * np.diag([1.0, 4.0])
        assert abs(single_dirac_distance(p, q) - math.sqrt(2e-20)) < 1e-20

    @pytest.mark.parametrize("s", [1e-20, 1.0, 1e10, 1e308])
    def test_homogeneous_of_degree_one_half(self, s):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p, q = random_psd(rng, 2, n=2)
            d = single_dirac_distance(p, q)
            assert abs(single_dirac_distance(s * p, s * q)
                       - math.sqrt(s) * d) <= 1e-9 * math.sqrt(s) * d

    @pytest.mark.parametrize("p, message", [
        ([[1.0, 2.0], [0.0, 1.0]], "first stack: non-symmetric matrix"),
        ([[1.0, math.nan], [math.nan, 1.0]], "first stack: non-finite entry"),
    ])
    def test_inputs_go_through_the_symmetry_check(self, p, message):
        # Unchecked, the first gives 0.732 and the second an OverflowError.
        with pytest.raises(ValueError, match=message):
            single_dirac_distance(p, np.eye(2))
        with pytest.raises(ValueError, match=message.replace("first", "second")):
            single_dirac_distance(np.eye(2), p)

    def test_negative_radicand_reported(self):
        from qot.interpolate import NumericalConsistencyError

        # indefinite inputs break the nonnegativity the formula relies on
        bad = np.diag([-2.0, -2.0])
        with pytest.raises(NumericalConsistencyError):
            single_dirac_distance(bad, np.diag([-2.0, -1.0]))

    def test_triangle_inequality_logged_not_asserted(self):
        rng = np.random.default_rng(29)
        violations = 0
        for _ in range(200):
            a, b, c = random_psd(rng, 2, n=3)
            if single_dirac_distance(a, c) > (
                single_dirac_distance(a, b) + single_dirac_distance(b, c) + 1e-12
            ):
                violations += 1
        print(f"triangle inequality violations: {violations}/200")


class TestGridShape:
    def test_recognizes_grid(self):
        xs = np.linspace(0, 1, 4)
        ys = np.linspace(0, 1, 3)
        gx, gy = np.meshgrid(xs, ys)
        pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        field = TensorMeasure(pts, np.broadcast_to(np.eye(2), (12, 2, 2)).copy())
        nx, ny, order = _grid_shape(field)
        assert (nx, ny) == (4, 3)
        assert np.array_equal(
            field.points[order],
            np.stack([np.tile(xs, 3), np.repeat(ys, 4)], axis=-1),
        )

    def test_rejects_scatter(self):
        rng = np.random.default_rng(31)
        pts = rng.uniform(size=(7, 2))
        field = TensorMeasure(pts, np.broadcast_to(np.eye(2), (7, 2, 2)).copy())
        with pytest.raises(ValueError):
            _grid_shape(field)


def grid_field(n, tensor):
    xs = np.linspace(0.0, 1.0, n)
    gx, gy = np.meshgrid(xs, xs)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    return TensorMeasure(pts, np.broadcast_to(tensor, (n * n, 2, 2)).copy())


def autocorr_halfwidth(f, axis):
    g = f - f.mean()
    spec = np.abs(np.fft.fft2(g)) ** 2
    ac = np.fft.ifft2(spec).real
    ac = ac / ac[0, 0]
    profile = ac[0, :] if axis == 0 else ac[:, 0]
    half = len(profile) // 2
    for k in range(1, half):
        if profile[k] < 0.5:
            prev, cur = profile[k - 1], profile[k]
            return (k - 1) + (prev - 0.5) / (prev - cur)
    return float(half)


class TestAnisotropicDiffuse:
    def test_zero_field_returns_noise(self):
        field = grid_field(16, np.zeros((2, 2)))
        out = anisotropic_diffuse(field, noise_seed=4, steps=25, dt=0.1)
        assert np.array_equal(out, np.random.default_rng(4).standard_normal((16, 16)))

    def test_deterministic_given_seed(self):
        field = grid_field(16, np.eye(2))
        a = anisotropic_diffuse(field, noise_seed=9, steps=10, dt=0.1)
        b = anisotropic_diffuse(field, noise_seed=9, steps=10, dt=0.1)
        assert np.array_equal(a, b)

    def test_isotropic_variance_decreases(self):
        field = grid_field(24, np.eye(2))
        variances = [
            anisotropic_diffuse(field, noise_seed=2, steps=s, dt=0.2).var()
            for s in (0, 10, 40)
        ]
        assert variances[0] > variances[1] > variances[2]

    def test_anisotropic_stretch_along_x(self):
        field = grid_field(48, np.diag([1.0, 0.01]))
        out = anisotropic_diffuse(field, noise_seed=7, steps=60, dt=0.2)
        wx = autocorr_halfwidth(out, axis=0)
        wy = autocorr_halfwidth(out, axis=1)
        assert wx > 2.0 * wy

    def test_isotropic_blobs(self):
        field = grid_field(64, np.eye(2))
        out = anisotropic_diffuse(field, noise_seed=5, steps=40, dt=0.2)
        wx = autocorr_halfwidth(out, axis=0)
        wy = autocorr_halfwidth(out, axis=1)
        assert abs(wx / wy - 1.0) < 0.1

    def test_cfl_bound_enforced(self):
        field = grid_field(8, np.eye(2))
        with pytest.raises(ValueError):
            anisotropic_diffuse(field, noise_seed=0, steps=1, dt=0.3)


class TestRawProducts:
    def test_sym_projection_is_noop_for_commuting(self):
        from qot.interpolate import _raw_interpolation_products

        mu = TensorMeasure(np.zeros((1, 2)), np.diag([2.0, 1.0])[None])
        nu = TensorMeasure(np.ones((1, 2)), np.diag([4.0, 3.0])[None])
        g = Coupling(np.diag([1.0, 0.5])[None, None])
        raw = _raw_interpolation_products(mu, nu, g, 0.5, np.array([0]),
                                          np.array([0]))
        assert np.allclose(raw[0], raw[0].T)

    def test_products_of_the_given_pairs(self):
        from qot.interpolate import _raw_interpolation_products

        rng = np.random.default_rng(5)
        mu = TensorMeasure(rng.uniform(size=(2, 2)), random_psd(rng, 2, n=2))
        nu = TensorMeasure(rng.uniform(size=(3, 2)), random_psd(rng, 2, n=3))
        g = Coupling(random_psd(rng, 2, n=6).reshape(2, 3, 2, 2))
        rows, cols = np.array([1, 0, 1]), np.array([2, 0, 0])
        raw = _raw_interpolation_products(mu, nu, g, 0.3, rows, cols)
        inv_r = np.linalg.inv(g.entries.sum(axis=1))
        inv_c = np.linalg.inv(g.entries.sum(axis=0))
        for k, (i, j) in enumerate(zip(rows, cols)):
            mix = 0.7 * mu.tensors[i] @ inv_r[i] + 0.3 * nu.tensors[j] @ inv_c[j]
            assert np.allclose(raw[k], mix @ g.entries[i, j], rtol=1e-10)
