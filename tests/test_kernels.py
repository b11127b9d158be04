import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from kmbdf import data, kernels
from kmbdf.errors import ConfigError, DomainError, ShapeError
from kmbdf.kernels import (
    KERNEL_FAMILIES,
    KernelSpec,
    grad_b_sum,
    gram_matrix,
    kernel_from_stat,
    median_bandwidth,
    median_gram,
    pair_sq_dists,
)

from kernel_reference import eval_kernel, kernel_grad_b, refused_unless_distance

ALL_SPECS = [
    KernelSpec(family="exponential", sigma=1.0),
    KernelSpec(family="gaussian", sigma=1.0),
    KernelSpec(family="linear"),
    KernelSpec(family="polynomial", degree=3),
    KernelSpec(family="sigmoid"),
]


def fd_grad_b(spec, a, b, eps=1e-5):
    """Central-difference oracle for dK(a, b)/db."""
    g = np.zeros_like(b, dtype=float)
    it = np.nditer(b, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        hi = np.array(b, dtype=float)
        hi[idx] += eps
        lo = np.array(b, dtype=float)
        lo[idx] -= eps
        g[idx] = (eval_kernel(spec, a, hi) - eval_kernel(spec, a, lo)) / (2 * eps)
        it.iternext()
    return g


def double_loop(spec, rows, cols):
    """Sequential oracle: one eval_kernel call per entry."""
    return np.array([[eval_kernel(spec, r, c) for c in cols] for r in rows])


class TestEvalKernel:
    def test_exponential_zero_distance(self):
        spec = KernelSpec(family="exponential", sigma=1.0)
        a = np.array([[0.3, -1.2], [0.5, 2.0]])
        assert eval_kernel(spec, a, a) == 1.0

    def test_exponential_closed_form(self):
        spec = KernelSpec(family="exponential", sigma=1.0)
        assert eval_kernel(spec, [[0.0]], [[2.0]]) == pytest.approx(np.exp(-1.0))

    def test_gaussian_closed_form(self):
        spec = KernelSpec(family="gaussian", sigma=1.0)
        assert eval_kernel(spec, [[0.0]], [[2.0]]) == pytest.approx(np.exp(-2.0))

    def test_linear_inner_product(self):
        spec = KernelSpec(family="linear")
        assert eval_kernel(spec, [[1.0], [2.0]], [[3.0], [4.0]]) == 11.0

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_symmetry(self, spec):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=(4, 2))
            b = rng.normal(size=(4, 2))
            assert eval_kernel(spec, a, b) == eval_kernel(spec, b, a)

    @pytest.mark.parametrize("family", ["exponential", "gaussian"])
    def test_range_and_identity(self, family):
        spec = KernelSpec(family=family, sigma=0.7)
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.normal(size=(3, 2))
            b = rng.normal(size=(3, 2))
            v = eval_kernel(spec, a, b)
            assert 0.0 < v < 1.0
        assert eval_kernel(spec, a, a) == 1.0

    @pytest.mark.parametrize("family", ["exponential", "gaussian"])
    def test_monotone_decay(self, family):
        spec = KernelSpec(family=family, sigma=1.3)
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 2))
        direction = rng.normal(size=(3, 2))
        direction /= np.linalg.norm(direction)
        for _ in range(100):
            r1, r2 = sorted(rng.uniform(0.01, 5.0, size=2))
            if r1 == r2:
                continue
            near = eval_kernel(spec, a, a + r1 * direction)
            far = eval_kernel(spec, a, a + r2 * direction)
            assert far < near


class TestGramMatrix:
    def test_singleton(self):
        spec = KernelSpec(family="exponential", sigma=1.0)
        z = np.array([[0.5, 1.0]])
        np.testing.assert_allclose(gram_matrix(spec, [z], [z]), [[1.0]])

    def test_two_points(self):
        spec = KernelSpec(family="exponential", sigma=1.0)
        pts = [np.array([[0.0]]), np.array([[2.0]])]
        expected = np.array([[1.0, np.exp(-1)], [np.exp(-1), 1.0]])
        np.testing.assert_allclose(gram_matrix(spec, pts, pts), expected)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_matches_double_loop(self, spec):
        rng = np.random.default_rng(4)
        pts = [rng.normal(size=(3, 2)) for _ in range(5)]
        stack = np.asarray(pts)
        expected = double_loop(spec, pts, pts)
        # Lists and (N, L, D) stacks, as two objects or as one object twice;
        # the inner-product families are refused in every form.
        for rows, cols in ((pts, list(pts)), (stack, stack.copy()), (pts, stack),
                           (pts, pts), (stack, stack)):
            with refused_unless_distance(spec):
                np.testing.assert_allclose(
                    gram_matrix(spec, rows, cols), expected, rtol=1e-12, atol=0
                )
        # One object twice is one symmetric product: exactly symmetric, with
        # a diagonal of exactly K(z, z) = 1.
        if spec.is_distance:
            g = gram_matrix(spec, stack, stack)
            np.testing.assert_array_equal(g, g.T)
            np.testing.assert_array_equal(np.diag(g), 1.0)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_near_duplicates(self, spec):
        # Z against Z + 1e-9: the diagonal's squared distances are ~1e-18
        # per entry, far below the expansion's rounding of ||Z||^2.
        rng = np.random.default_rng(9)
        pts = [rng.normal(size=(6, 3)) for _ in range(7)]
        shifted = [p + 1e-9 for p in pts]
        with refused_unless_distance(spec):
            np.testing.assert_allclose(
                gram_matrix(spec, pts, shifted), double_loop(spec, pts, shifted),
                rtol=1e-12, atol=0,
            )

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_large_offset(self, spec):
        # Points at +1e3 with spread 1e-3 over L*D = 4000 entries: the
        # uncentred squared norms are ~4e9 and the distances ~8e-3.
        rng = np.random.default_rng(10)
        rows = [1e3 + 1e-3 * rng.normal(size=(200, 20)) for _ in range(6)]
        cols = [1e3 + 1e-3 * rng.normal(size=(200, 20)) for _ in range(5)]
        with refused_unless_distance(spec):
            np.testing.assert_allclose(
                gram_matrix(spec, rows, cols), double_loop(spec, rows, cols),
                rtol=1e-12, atol=0,
            )

    def test_inputs_not_modified(self):
        rng = np.random.default_rng(11)
        pts = np.asarray([rng.normal(size=(3, 2)) for _ in range(4)])
        other = pts + 1.0
        before, other_before = pts.copy(), other.copy()
        spec = KernelSpec(family="gaussian", sigma=1.0)
        gram_matrix(spec, pts, pts)
        gram_matrix(spec, pts, other)
        median_bandwidth(pts)
        np.testing.assert_array_equal(pts, before)
        np.testing.assert_array_equal(other, other_before)

    def test_ragged_and_non_finite_rejected(self):
        spec = KernelSpec(family="gaussian", sigma=1.0)
        ragged = [np.zeros((3, 2)), np.zeros((4, 2))]
        with pytest.raises(ShapeError):
            gram_matrix(spec, ragged, ragged)
        with pytest.raises(ShapeError):
            median_bandwidth(ragged)
        with pytest.raises(ShapeError):
            gram_matrix(spec, np.zeros((4, 3, 2)), np.zeros((4, 2, 3)))
        for bad in (np.nan, np.inf):
            z = np.zeros((4, 3, 2))
            z[2, 1, 0] = bad
            with pytest.raises(DomainError):
                gram_matrix(spec, z, z)
            with pytest.raises(DomainError):
                gram_matrix(spec, np.ones((4, 3, 2)), z)
            with pytest.raises(DomainError):
                median_bandwidth(z)

    @pytest.mark.parametrize("family", ["exponential", "gaussian"])
    def test_psd(self, family):
        spec = KernelSpec(family=family, sigma=1.1)
        rng = np.random.default_rng(5)
        pts = [rng.normal(size=(4, 3)) for _ in range(20)]
        g = gram_matrix(spec, pts, pts)
        assert np.min(np.linalg.eigvalsh(g)) >= -1e-8

    def test_rectangular(self):
        spec = KernelSpec(family="exponential", sigma=1.0)
        rng = np.random.default_rng(6)
        rows = [rng.normal(size=(2, 2)) for _ in range(3)]
        cols = [rng.normal(size=(2, 2)) for _ in range(4)]
        assert gram_matrix(spec, rows, cols).shape == (3, 4)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            gram_matrix(KernelSpec(family="exponential", sigma=1.0), [], [np.zeros((1, 1))])


class TestKernelGrad:
    def test_gaussian_zero_at_coincidence(self):
        spec = KernelSpec(family="gaussian", sigma=1.0)
        a = np.array([[1.0, 2.0]])
        np.testing.assert_array_equal(kernel_grad_b(spec, a, a), np.zeros_like(a))

    def test_exponential_closed_form(self):
        spec = KernelSpec(family="exponential", sigma=1.0)
        g = kernel_grad_b(spec, [[0.0]], [[2.0]])
        assert g[0, 0] == pytest.approx(-np.exp(-1.0) / 2.0)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_finite_difference(self, spec):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.normal(size=(3, 2))
            b = rng.normal(size=(3, 2))
            analytic = kernel_grad_b(spec, a, b)
            numeric = fd_grad_b(spec, a, b)
            denom = max(np.linalg.norm(numeric), 1e-12)
            assert np.linalg.norm(analytic - numeric) / denom < 1e-6


class TestGradBSum:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_matches_row_loop(self, spec):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(6, 5)), rng.normal(size=(4, 5))
        coeffs = rng.normal(size=(6, 4))
        want = np.stack([
            coeffs[:, j] @ (a - b[j] if spec.is_distance else a) for j in range(4)
        ])
        np.testing.assert_allclose(grad_b_sum(spec, coeffs, a, b), want, rtol=1e-13)

    @pytest.mark.parametrize("budget", [1, 60, 1000])
    def test_chunks_round_alike(self, monkeypatch, budget):
        # One row (30 differences) per product, two rows, and all five rows.
        spec = ALL_SPECS[0]
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(6, 5)), rng.normal(size=(5, 5))
        coeffs = rng.normal(size=(6, 5))
        whole = grad_b_sum(spec, coeffs, a, b)
        monkeypatch.setattr(kernels, "_DIFF_ELEMENTS", budget)
        np.testing.assert_array_equal(grad_b_sum(spec, coeffs, a, b), whole)

    @pytest.mark.parametrize("spec", [ALL_SPECS[0], ALL_SPECS[2]], ids=lambda s: s.family)
    def test_within_stated_bound(self, monkeypatch, spec):
        # Every entry against its exact sum, in four products of two rows
        # (the last of one).  Rows sit at +1e3; b_3 is 1e-9 from a_2 and b_5
        # equals a_4, so some differences are tiny or exactly 0.
        rng = np.random.default_rng(10)
        m, j, p = 6, 7, 9
        a, b = 1e3 + rng.normal(size=(m, p)), 1e3 + rng.normal(size=(j, p))
        b[3], b[5] = a[2] + 1e-9, a[4]
        coeffs = rng.normal(size=(m, j))
        monkeypatch.setattr(kernels, "_DIFF_ELEMENTS", 2 * m * p)
        got = grad_b_sum(spec, coeffs, a, b)
        k = m + 1 if spec.is_distance else m
        gamma = k * Fraction(2.0**-53) / (1 - k * Fraction(2.0**-53))
        for jj in range(j):
            for pp in range(p):
                terms = [
                    Fraction(coeffs[mm, jj])
                    * (Fraction(a[mm, pp]) - Fraction(b[jj, pp]) if spec.is_distance
                       else Fraction(a[mm, pp]))
                    for mm in range(m)
                ]
                error = abs(Fraction(got[jj, pp]) - sum(terms))
                assert error <= gamma * sum(abs(t) for t in terms), (jj, pp)


class TestKernelSpec:
    def test_sigma_required_positive(self):
        with pytest.raises(ConfigError):
            KernelSpec(family="exponential", sigma=0.0)
        for family in KERNEL_FAMILIES:  # None is no sigma, even where the family ignores it
            with pytest.raises(ConfigError, match="sigma must be"):
                KernelSpec(family=family, sigma=None, degree=2)

    def test_polynomial_degree_required(self):
        with pytest.raises(ConfigError):
            KernelSpec(family="polynomial")
        with pytest.raises(ConfigError):
            KernelSpec(family="polynomial", degree=0)

    def test_irrelevant_params_ignored(self):
        spec = KernelSpec(family="linear", sigma=2.0, degree=3)
        assert eval_kernel(spec, [[1.0]], [[2.0]]) == 2.0

    def test_default_scale_and_offset(self):
        spec = KernelSpec(family="sigmoid")
        a = np.ones((2, 2))
        b = np.ones((2, 2))
        # scale 1/4 over 4 entries, offset -1: tanh(1 - 1) = 0
        assert eval_kernel(spec, a, b) == pytest.approx(0.0)


class TestUnresolvedSigma:
    @pytest.mark.parametrize("family", ["exponential", "gaussian"])
    def test_median_never_reaches_kernel_math(self, family):
        spec = KernelSpec(family=family, sigma="median")
        z = np.random.default_rng(3).normal(size=(4, 3, 2))
        with pytest.raises(ConfigError, match="median"):
            gram_matrix(spec, z, z)
        with pytest.raises(ConfigError, match="median"):
            eval_kernel(spec, z[0], z[1])

    def test_default_is_unresolved_median(self):
        assert KernelSpec().sigma == "median"
        # The inner-product families never read sigma.
        assert eval_kernel(KernelSpec(family="linear"), [[1.0]], [[2.0]]) == 2.0


class TestMedianBandwidth:
    def test_matches_direct_median(self):
        rng = np.random.default_rng(8)
        joints = [rng.normal(size=(24, 3)) for _ in range(64)]
        dists = [
            np.linalg.norm((joints[i] - joints[j]).ravel())
            for i in range(64)
            for j in range(i + 1, 64)
        ]
        sigma = median_bandwidth(joints)
        np.testing.assert_allclose(sigma**2, np.median(dists), rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            median_bandwidth(np.asarray(joints)), sigma, rtol=1e-12, atol=0
        )

    def test_degenerate_batch_falls_back(self):
        # Coincident rows whose centred values and norms round still give
        # distance exactly 0.
        noise = np.random.default_rng(13).normal(size=(40, 25))
        for z in (np.ones((2, 2)), noise, 1e3 + noise):
            assert median_bandwidth([z, z.copy(), z.copy(), z.copy()]) == 1.0

    def test_needs_two_points(self):
        with pytest.raises(ConfigError):
            median_bandwidth([np.ones((2, 2))])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 9])
    def test_bitwise_equal_to_np_median(self, n):
        # 1, 3, 6, 10, 15 and 36 pairs: odd and even counts.  Integer points
        # tie many distances, repeated points tie them at 0, and
        # all-equal points fall back to 1.0.
        rng = np.random.default_rng(n)
        random = rng.normal(size=(n, 5, 2))
        grid = rng.integers(0, 3, size=(n, 2, 2)).astype(float)
        repeated = random.copy()
        repeated[1::2] = repeated[: n // 2 * 2 : 2]
        for stack in (random, grid, repeated, np.ones((n, 3, 2))):
            sq = pair_sq_dists(stack)
            med = np.median(np.sqrt(sq[np.triu_indices(n, k=1)]))
            want = 1.0 if med <= 0.0 else float(np.sqrt(med))
            assert median_bandwidth(stack).hex() == want.hex()
        assert median_bandwidth(np.ones((n, 3, 2))) == 1.0
        sq = pair_sq_dists(random)
        sq[0, -1] = sq[-1, 0] = np.nan
        assert np.isnan(kernels._median_sigma(sq))


def shared_block_cases():
    """(history, labels, forecasts) stacks whose joints share the history:
    random rows, forecasts within 1e-9 of their labels (near-duplicate
    joints), and rows at +1e3 with spread 1e-3."""
    rng = np.random.default_rng(21)
    hist, lab = rng.normal(size=(9, 7, 3)), rng.normal(size=(9, 5, 3))
    yield hist, lab, rng.normal(size=(9, 5, 3))
    yield hist, lab, lab + 1e-9
    hist, lab = 1e3 + 1e-3 * rng.normal(size=(2, 8, 40, 20))
    yield hist, lab, 1e3 + 1e-3 * rng.normal(size=(8, 40, 20))


class TestSharedBlock:
    @pytest.mark.parametrize("spec", ALL_SPECS[:2], ids=lambda s: s.family)
    def test_matches_concatenated_joints(self, spec):
        for hist, lab, fc in shared_block_cases():
            shared = pair_sq_dists(hist)
            reals = np.concatenate([hist, lab], axis=1)
            fcs = np.concatenate([hist, fc], axis=1)
            for rows, cols, jr, jc in ((lab, fc, reals, fcs), (lab, lab, reals, reals)):
                np.testing.assert_allclose(
                    gram_matrix(spec, rows, cols, shared), gram_matrix(spec, jr, jc),
                    rtol=1e-12, atol=0,
                )
            np.testing.assert_allclose(
                median_gram(KernelSpec(family=spec.family), lab, shared)[0].sigma,
                median_bandwidth(reals), rtol=1e-12, atol=0,
            )

    @pytest.mark.parametrize("spec", ALL_SPECS[:2], ids=lambda s: s.family)
    def test_median_gram_keeps_a_fixed_sigma(self, spec):
        # Only sigma "median" is resolved; a fixed sigma gives gram_matrix's bits.
        for hist, lab, _ in shared_block_cases():
            for shared in (None, pair_sq_dists(hist)):
                kept, g = median_gram(spec, lab, shared)
                assert kept == spec
                assert g.tobytes() == gram_matrix(spec, lab, lab, shared).tobytes()

    def test_pair_sq_dists(self):
        rng = np.random.default_rng(22)
        stack = rng.normal(size=(6, 4, 3))
        before = stack.copy()
        sq = pair_sq_dists(stack)
        expected = [[np.sum((a - b) ** 2) for b in stack] for a in stack]
        np.testing.assert_allclose(sq, expected, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(sq, sq.T)
        np.testing.assert_array_equal(np.diag(sq), 0.0)
        np.testing.assert_array_equal(stack, before)
        np.testing.assert_array_equal(pair_sq_dists(list(stack)), sq)

    @pytest.mark.parametrize("spec", ALL_SPECS[2:], ids=lambda s: s.family)
    def test_inner_product_families_rejected(self, spec):
        # Their default scale is 1/len of the whole joint, which the label
        # block alone does not give.
        z = np.random.default_rng(23).normal(size=(4, 3, 2))
        with pytest.raises(ConfigError):
            gram_matrix(spec, z, z, np.zeros((4, 4)))

    def test_misshaped_shared_rejected(self):
        z = np.random.default_rng(24).normal(size=(4, 3, 2))
        for spec in ALL_SPECS[:2]:
            for bad in (np.zeros((4, 3)), np.zeros((3, 3)), np.zeros(16)):
                with pytest.raises(ShapeError):
                    gram_matrix(spec, z, z, bad)
        with pytest.raises(ShapeError):
            gram_matrix(ALL_SPECS[0], z, z[:3], np.zeros((4, 4)))


def ar1_series(rows, channels, seed, phi=0.9):
    rng = np.random.default_rng(seed)
    x = np.zeros((rows, channels))
    for t in range(1, rows):
        x[t] = phi * x[t - 1] + rng.normal(size=channels)
    return x


def loop_sq_dists(stack):
    return np.array([[np.sum((a - b) ** 2) for b in stack] for a in stack])


def sliding_cases():
    """(name, stride-1 window stack) pairs, all read-only views."""
    x = ar1_series(80, 3, seed=41)
    yield "ar1", data.joint_windows(x, 12)
    yield "ar1 labels", data.joint_windows(x, 14)[:, 9:]
    yield "ar1 slice", data.joint_windows(x, 7)[5:40]
    yield "offset", data.joint_windows(1e3 + 1e-3 * x, 10)
    rep = x.copy()
    rep[50:70] = rep[10:30]
    yield "repeated segment", data.joint_windows(rep, 8)
    flat = x.copy()
    flat[20:45] = flat[20]
    yield "flat segment", data.joint_windows(flat, 6)
    yield "L=1", data.joint_windows(x, 1)
    yield "L=2", data.joint_windows(x[:, :1], 2)
    yield "N=2", data.joint_windows(x, 79)
    yield "D=1", data.joint_windows(x[:, 1:2], 5)
    yield "negative stride", data.joint_windows(x[::-1], 11)


class TestSlidingPath:
    @pytest.mark.parametrize("stack", [s for _, s in sliding_cases()],
                             ids=[name for name, _ in sliding_cases()])
    def test_matches_product_and_loop(self, stack):
        assert kernels._window_rows(stack) is not None
        before = stack.copy()
        sq = pair_sq_dists(stack)
        np.testing.assert_array_equal(stack, before)
        np.testing.assert_array_equal(sq, sq.T)
        np.testing.assert_array_equal(np.diag(sq), 0.0)
        assert (sq >= 0).all()
        np.testing.assert_allclose(sq, pair_sq_dists(stack.copy()), rtol=1e-12, atol=0)
        np.testing.assert_allclose(sq, loop_sq_dists(stack), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n, length", [(512, 8), (384, 32)])
    def test_peak_memory_is_about_the_row_distances(self, n, length):
        # The window sums fill the buffer of the (m, m) row distances in place,
        # m = n+length-1: besides it only (length, n) block sums and row-block
        # temporaries are allocated.  A separate (n, n) result (2.1-2.3 n^2 at
        # these sizes) fails.
        stack = data.joint_windows(ar1_series(n + length - 1, 3, seed=47), length)
        pair_sq_dists(stack)
        tracemalloc.start()
        try:
            sq = pair_sq_dists(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = n + length - 1
        assert sq.shape == (n, n)
        assert peak <= 8 * (m * m + 0.5 * n * n), peak / (8 * n * n)

    def test_coincident_windows_exactly_zero(self):
        cases = dict(sliding_cases())
        rep = cases["repeated segment"]  # rows 50..69 repeat rows 10..29
        sq = pair_sq_dists(rep)
        for i in range(10, 30 - 8 + 1):
            assert sq[i, i + 40] == 0.0 and sq[i + 40, i] == 0.0
        flat = pair_sq_dists(cases["flat segment"])  # rows 20..44 equal
        np.testing.assert_array_equal(flat[20:40, 20:40], 0.0)

    def test_near_coincident_windows_keep_relative_accuracy(self, monkeypatch):
        # Windows 1e-9 apart next to windows at unit distance: a difference
        # of prefix sums over the far rows would lose them, and so would a
        # product-path recompute from the centred copy.
        x = ar1_series(60, 2, seed=42)
        x[40:55] = x[5:20] + 1e-9 * ar1_series(15, 2, seed=43)
        stack = data.joint_windows(x, 6)
        loop = loop_sq_dists(stack)
        np.testing.assert_allclose(pair_sq_dists(stack), loop, rtol=1e-12, atol=0)
        sigma = median_bandwidth(stack)

        def forbidden(*args):
            raise AssertionError("sliding path taken")

        monkeypatch.setattr(kernels, "_sliding_sq_dists", forbidden)
        gathered, rows = stack[np.arange(len(stack))], list(stack)
        # sigma^2 of the order of the near pairs' squared distances, so
        # their Gram entries carry the distances' relative error.
        near = loop[(loop > 0) & (loop < 1e-12)]
        tight = KernelSpec(family="gaussian", sigma=np.sqrt(np.median(near)))
        expected = np.exp(-loop / (2.0 * tight.sigma**2))
        for other in (gathered, rows):
            np.testing.assert_allclose(pair_sq_dists(other), loop, rtol=1e-12, atol=0)
            np.testing.assert_allclose(median_bandwidth(other), sigma, rtol=1e-12, atol=0)
            np.testing.assert_allclose(
                gram_matrix(tight, other, other), expected, rtol=1e-12, atol=0
            )
        np.testing.assert_allclose(
            gram_matrix(tight, gathered, rows), expected, rtol=1e-12, atol=0
        )

    def test_non_finite_rejected(self):
        x = ar1_series(30, 2, seed=44)
        x[17, 1] = np.nan
        with pytest.raises(DomainError):
            pair_sq_dists(data.joint_windows(x, 5))

    def test_other_inputs_take_the_product_path(self, monkeypatch):
        x = ar1_series(50, 3, seed=45)
        stack = data.joint_windows(x, 8)
        sliding = pair_sq_dists(stack)
        single = np.moveaxis(sliding_window_view(x.astype(np.float32), 8, axis=0), -1, 1)

        def forbidden(*args):
            raise AssertionError("sliding path taken")

        monkeypatch.setattr(kernels, "_sliding_sq_dists", forbidden)
        for other, ref in (
            (stack[np.arange(len(stack))], sliding),
            (list(stack), sliding),
            (stack[::2], sliding[::2, ::2]),
            (single, loop_sq_dists(single.astype(float))),
        ):
            assert kernels._window_rows(other) is None
            np.testing.assert_allclose(pair_sq_dists(other), ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("spec", ALL_SPECS[:2], ids=lambda s: s.family)
    def test_gram_and_bandwidth_take_it(self, spec, monkeypatch):
        stack = data.joint_windows(ar1_series(70, 2, seed=46), 9)
        copy = stack.copy()
        calls = []
        sliding = kernels._sliding_sq_dists

        def counted(*args):
            calls.append(len(args[0]))
            return sliding(*args)

        monkeypatch.setattr(kernels, "_sliding_sq_dists", counted)
        np.testing.assert_allclose(
            gram_matrix(spec, stack, stack), gram_matrix(spec, copy, copy), rtol=1e-12, atol=0
        )
        np.testing.assert_allclose(
            median_bandwidth(stack), median_bandwidth(copy), rtol=1e-12, atol=0
        )
        assert calls == [70, 70]


def row_block_cases():
    """(name, call, width) with near pairs in rows far apart: `call` runs
    `_sq_dists` on blocks of `width` columns.  Rows 1 and 8 and rows 0
    and 6 of each product stack are pairs 1e-9 apart, and rows 4 and 9
    coincide; `joint_stats` also gets histories whose rows 1 and 8
    coincide and forecasts (the stack reversed) that equal its labels at
    rows 1 and 8."""
    rng = np.random.default_rng(71)
    stack = rng.normal(size=(10, 4, 3))
    stack[6], stack[8], stack[9] = stack[0] + 1e-9, stack[1] + 1e-9, stack[4]
    yield "product", lambda: pair_sq_dists(stack), 10
    x = ar1_series(40, 2, seed=72)
    x[25:34] = x[3:12]
    windows = data.joint_windows(x, 6)
    yield "sliding", lambda: pair_sq_dists(windows), len(x)
    other = rng.normal(size=(7, 4, 3))
    other[5], other[6] = stack[1], stack[8] + 1e-9
    spec = KernelSpec(sigma=1.5)
    yield "gram", lambda: gram_matrix(spec, stack, other), 7
    flats = [z.reshape(10, -1) for z in (rng.normal(size=(10, 6)), stack, stack[::-1].copy())]
    flats[0][8] = flats[0][1]
    flats[2][[1, 8]] = flats[1][[1, 8]]
    for anchor in (True, False):
        yield f"joint_stats {anchor}", lambda a=anchor: kernels.joint_stats(spec, *flats, a), 10


class TestRowBlocks:
    """`_sq_dists` forms the norms, expansion and near-pair mask in row
    blocks: any block size gives the same bytes as one block."""

    @pytest.mark.parametrize("name, call, width", list(row_block_cases()),
                             ids=[c[0] for c in row_block_cases()])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_blocks_give_the_same_bytes(self, monkeypatch, name, call, width, rows):
        whole = call()
        monkeypatch.setattr(kernels, "_ROW_BLOCK_ELEMENTS", rows * width)
        assert np.asarray(call()).tobytes() == np.asarray(whole).tobytes()

    def test_training_shapes_are_one_block(self):
        assert 128 * 128 <= kernels._ROW_BLOCK_ELEMENTS


def exact_sq_dists(stack, cols=None):
    """Exact squared distances from the samples of a stack to those of
    `cols` (default: the stack's own), as Fractions: each float is an
    integer multiple of one power of two."""
    rows = np.asarray(stack, dtype=float).reshape(len(stack), -1)
    cols = rows if cols is None else np.asarray(cols, dtype=float).reshape(len(cols), -1)
    scale = max(Fraction(v).denominator for v in (*rows.flat, *cols.flat))
    r_ints, c_ints = ([[int(Fraction(v) * scale) for v in row] for row in a] for a in (rows, cols))
    return [[Fraction(sum((a - b) ** 2 for a, b in zip(r, c)), scale**2) for c in c_ints]
            for r in r_ints]


def expansion_ratios(flats):
    """Each pair's squared distance over the sum of its centred squared
    norms: the share `_sq_dists` compares with NEAR_PAIR_RATIO."""
    centred = flats - flats.mean(axis=0)
    norms = np.sum(centred**2, axis=1)
    sq = np.sum((flats[:, None] - flats[None]) ** 2, axis=-1)
    return sq / (norms[:, None] + norms[None])


def place_near(rng, flats, pairs, ratios):
    """Set flats[j] = flats[i] + a random step for each (i, j) in `pairs`,
    scaled until the pair's `expansion_ratios` entry is its `ratios` entry."""
    i, j = np.array(pairs).T
    steps = rng.normal(size=(len(pairs), flats.shape[1]))
    steps /= np.linalg.norm(steps, axis=1)[:, None]
    for _ in range(10):
        norms = np.sum((flats - flats.mean(axis=0)) ** 2, axis=1)
        flats[j] = flats[i] + steps * np.sqrt(np.multiply(ratios, norms[i] + norms[j]))[:, None]


class TestDistanceBound:
    """Every entry of `pair_sq_dists` is within `_pairwise`'s stated
    relative bound 2e3 P u (u = 2^-53, P elements a sample) of the exact
    squared distance, on both paths, and every entry of `joint_stats` within
    2e3 max(P_h, P_t) u of the exact joint distance.  Pairs just above
    NEAR_PAIR_RATIO keep the expansion where its cancellation is worst;
    near-duplicates below it are recomputed.  All samples sit at a +1e3
    offset."""

    @staticmethod
    def assert_within_bound(sq, exact, p):
        bound = Fraction(2e3 * p * 2.0**-53)
        for i, row in enumerate(exact):
            for j, want in enumerate(row):
                if want == 0:
                    assert sq[i, j] == 0.0, (i, j)
                else:
                    assert abs(Fraction(sq[i, j]) - want) <= bound * want, (i, j)

    @pytest.mark.parametrize("shape", [(10, 16, 4), (6, 96, 21)], ids=["P=64", "P=2016"])
    def test_product_path(self, shape):
        rng = np.random.default_rng(61)
        n, p = shape[0], shape[1] * shape[2]
        flats = 1e3 + rng.normal(size=(n, p))
        place_near(rng, flats, [(0, 1), (2, 3)], [1.5e-3, 1e-9])
        ratios = expansion_ratios(flats)
        assert kernels.NEAR_PAIR_RATIO < ratios[0, 1] < 2 * kernels.NEAR_PAIR_RATIO
        assert 0 < ratios[2, 3] < kernels.NEAR_PAIR_RATIO
        stack = flats.reshape(shape)
        assert kernels._window_rows(stack) is None
        self.assert_within_bound(pair_sq_dists(stack), exact_sq_dists(stack), p)

    def test_sliding_path(self):
        # Rows 44..63 repeat rows 4..23 just above the ratio, and rows
        # 64..79 repeat rows 24..39 far below it: windows of 16 rows at
        # those starts are near pairs in every row.
        rng = np.random.default_rng(62)
        x = 1e3 + ar1_series(80, 4, seed=62)
        pairs = [(4 + r, 44 + r) for r in range(20)] + [(24 + r, 64 + r) for r in range(16)]
        place_near(rng, x, pairs, [1.5e-3] * 20 + [1e-9] * 16)
        i, j = np.array(pairs).T
        ratios, cut = expansion_ratios(x)[i, j], kernels.NEAR_PAIR_RATIO
        assert (cut < ratios[:20]).all() and (ratios[:20] < 2 * cut).all()
        assert (0 < ratios[20:]).all() and (ratios[20:] < cut).all()
        stack = data.joint_windows(x, 16)
        assert kernels._window_rows(stack) is not None
        self.assert_within_bound(pair_sq_dists(stack), exact_sq_dists(stack), 64)

    @pytest.mark.parametrize("forecast_anchor", [True, False], ids=["forecast", "real"])
    def test_joint_stats(self, forecast_anchor):
        # Histories 0, 1 and 2, 3 coincide, so labels alone set those rows'
        # joint distances: labels 0, 1 are a kept near pair, 2, 3 a
        # recomputed one.  Forecasts 0 and 1 equal label 0, so the joints
        # (hist_0, labels_0) and (hist_1, forecasts_1) coincide, and
        # forecast 5 is 1e-7 from label 5.
        rng = np.random.default_rng(64)
        n, p_h, p_t = 8, 96, 40
        hist = 1e3 + rng.normal(size=(n, p_h))
        hist[1], hist[3] = hist[0], hist[2]
        labels = 1e3 + rng.normal(size=(n, p_t))
        place_near(rng, labels, [(0, 1), (2, 3)], [1.5e-3, 1e-9])
        forecasts = 1e3 + rng.normal(size=(n, p_t))
        forecasts[:2] = labels[0]
        step = rng.normal(size=p_t)
        forecasts[5] = labels[5] + 1e-7 * step / np.linalg.norm(step)
        # joint_stats centres labels and forecasts on their shared mean.
        ratios = expansion_ratios(np.concatenate([labels, forecasts]))
        cut = kernels.NEAR_PAIR_RATIO
        assert cut < ratios[0, 1] < 2 * cut and 0 < ratios[2, 3] < cut
        real, cross = kernels.joint_stats(ALL_SPECS[0], hist, labels, forecasts, forecast_anchor)
        z, zhat = np.hstack([hist, labels]), np.hstack([hist, forecasts])
        self.assert_within_bound(real, exact_sq_dists(z), p_h)
        want = exact_sq_dists(z, zhat) if forecast_anchor else exact_sq_dists(zhat, z)
        assert (want[0][1] if forecast_anchor else want[1][0]) == 0
        self.assert_within_bound(cross, want, p_h)


def formula(spec, stat, size):
    """Each family's kernel as an out-of-place expression of its statistic."""
    if spec.family == "exponential":
        return np.exp(-np.sqrt(stat) / (2.0 * spec.sigma**2))
    if spec.family == "gaussian":
        return np.exp(-stat / (2.0 * spec.sigma**2))
    if spec.family == "linear":
        return stat
    s, c = 1.0 / size, 0.0 if spec.family == "polynomial" else -1.0
    if spec.family == "polynomial":
        return (s * stat + c) ** int(spec.degree)
    return np.tanh(s * stat + c)


INPLACE_SPECS = ALL_SPECS + [
    KernelSpec(family="polynomial", degree=2),
    KernelSpec(family="exponential", sigma=0.37),
]


def gram_cases():
    """(name, rows, cols, shared) on the product path, the sliding path and
    with a shared block; the window views are read-only."""
    rng = np.random.default_rng(51)
    a, b = rng.normal(size=(2, 9, 5, 3))
    yield "product", a, b, None
    yield "product lists", list(a), list(b), None
    yield "within", a, a, None
    view = data.joint_windows(ar1_series(60, 2, seed=52), 9)
    yield "sliding", view, view, None
    hist, lab = view[:, :5], view[:, 5:]
    yield "shared", lab, 1e-3 + lab, pair_sq_dists(hist)
    yield "shared sliding", lab, lab, pair_sq_dists(hist)


class TestKernelInPlace:
    @pytest.mark.parametrize("spec", INPLACE_SPECS, ids=lambda s: s.family)
    def test_gram_is_kernel_of_a_copy_of_its_statistic(self, spec):
        # The inner-product families have no Gram, but the objective still
        # makes their inner products K in place.
        for name, rows, cols, shared in gram_cases():
            if shared is not None and not spec.is_distance:
                continue
            if not spec.is_distance:
                rf, cf = (np.array(z, dtype=float).reshape(len(z), -1) for z in (rows, cols))
                stat = rf @ cf.T
            elif cols is rows:
                stat = pair_sq_dists(rows)
            else:
                stat = kernels._pairwise(rows, cols)
            if shared is not None:
                stat += shared
            size = np.size(rows[0])
            want = formula(spec, stat.copy(), size)
            with refused_unless_distance(spec):
                np.testing.assert_array_equal(gram_matrix(spec, rows, cols, shared), want,
                                              err_msg=name)
            out = kernel_from_stat(spec, stat, size)
            assert out is stat
            np.testing.assert_array_equal(out, want, err_msg=name)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_gram_leaves_inputs_unmodified(self, spec):
        for name, rows, cols, shared in gram_cases():
            before = [np.array(z) for z in (rows, cols)]
            shared_before = None if shared is None else shared.copy()
            with refused_unless_distance(spec):
                gram_matrix(spec, rows, cols, shared)
            np.testing.assert_array_equal(np.array(rows), before[0], err_msg=name)
            np.testing.assert_array_equal(np.array(cols), before[1], err_msg=name)
            if shared is not None:
                np.testing.assert_array_equal(shared, shared_before, err_msg=name)

    def test_pairwise_copies_each_distinct_input_once(self, monkeypatch):
        # `_pairwise` makes the working copies: one per distinct input on the
        # product paths, lists and gathered stacks alike, none on the sliding
        # path; the caller's lists come back unmodified.
        copied, working_copy = [], kernels._working_copy
        monkeypatch.setattr(kernels, "_working_copy",
                            lambda mats, **kw: copied.append(mats) or working_copy(mats, **kw))
        spec = KernelSpec(family="exponential", sigma=0.7)
        view = data.joint_windows(ar1_series(40, 2, seed=54), 6)
        gathered, head = view[[0, 3, 4, 9, 20]], view[:7]
        a, b = list(gathered), list(1.0 + view[[1, 2, 5, 7, 11]])
        cases = [
            (lambda: gram_matrix(spec, a, b), [a, b]),
            (lambda: gram_matrix(spec, gathered, head), [gathered, head]),
            (lambda: gram_matrix(spec, a, a), [a]),
            (lambda: median_gram(spec, a), [a]),
            (lambda: median_gram(spec, gathered), [gathered]),
            (lambda: pair_sq_dists(a), [a]),
            (lambda: pair_sq_dists(gathered), [gathered]),
            (lambda: pair_sq_dists(view), []),
            (lambda: gram_matrix(spec, view, view), []),
            (lambda: median_gram(spec, view[2:30], pair_sq_dists(view[2:30])), []),
        ]
        before = [z.copy() for z in a + b]
        for i, (call, inputs) in enumerate(cases):
            copied.clear()
            call()
            assert len(copied) == len(inputs), i
            assert all(c is z for c, z in zip(copied, inputs)), i
        for z, want in zip(a + b, before):
            np.testing.assert_array_equal(z, want)

    @pytest.mark.parametrize("spec", INPLACE_SPECS, ids=lambda s: s.family)
    def test_scalar_statistic(self, spec):
        a, b = np.random.default_rng(53).normal(size=(2, 4, 3))
        stat = np.sum((a - b) ** 2) if spec.is_distance else np.sum(a * b)
        np.testing.assert_allclose(
            eval_kernel(spec, a, b), formula(spec, stat, a.size), rtol=1e-14, atol=0
        )
