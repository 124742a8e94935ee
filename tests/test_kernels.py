import numpy as np
import pytest
from scipy.spatial import distance

from ridgesvm import kernels, linalg, model
from ridgesvm.errors import DimensionMismatch, InvalidParameter
from ridgesvm.kernels import KernelSpec
from ridgesvm.model import Sample


class TestKernelEval:
    def test_rbf_zero_distance(self):
        spec = KernelSpec(family="rbf", sigma=2.0)
        assert kernels.kernel_eval([1.0, 2.0], [1.0, 2.0], spec) == pytest.approx(1.0)

    def test_polynomial_degree_two(self):
        spec = KernelSpec(family="polynomial", degree=2, offset=1.0)
        assert kernels.kernel_eval([1.0, 1.0], [1.0, 1.0], spec) == pytest.approx(9.0)

    def test_rbf_formula(self):
        spec = KernelSpec(family="rbf", sigma=1.0)
        # squared distance 2 -> exp(-1)
        val = kernels.kernel_eval([1.0, 0.0], [0.0, 1.0], spec)
        assert val == pytest.approx(np.exp(-1.0))

    def test_linear(self):
        spec = KernelSpec(family="linear")
        assert kernels.kernel_eval([1.0, 2.0], [3.0, 4.0], spec) == pytest.approx(11.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        for spec in (
            KernelSpec(family="linear"),
            KernelSpec(family="polynomial", degree=3),
            KernelSpec(family="rbf", sigma=0.7),
        ):
            assert kernels.kernel_eval(a, b, spec) == kernels.kernel_eval(b, a, spec)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kernels.kernel_eval([1.0], [1.0, 2.0], KernelSpec(family="linear"))


class TestSpecValidation:
    def test_bad_family(self):
        with pytest.raises(ValueError):
            KernelSpec(family="sigmoid")

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            KernelSpec(family="rbf", sigma=0.0)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            KernelSpec(family="polynomial", degree=0)

    def test_negative_ridge(self):
        with pytest.raises(ValueError):
            KernelSpec(family="linear", ridge=-0.1)

    @pytest.mark.parametrize("params", [
        {"ridge": float("nan")},
        {"ridge": float("inf")},
        {"sigma": float("nan")},
        {"family": "polynomial", "degree": 2.5},
        {"family": "polynomial", "degree": float("nan")},
        {"family": "polynomial", "offset": float("nan")},
        {"family": "polynomial", "offset": float("-inf")},
    ])
    def test_nan_and_other_values_outside_the_domain(self, params):
        with pytest.raises(InvalidParameter):
            KernelSpec(**params)

    def test_an_integral_float_degree_is_an_integer(self):
        spec = KernelSpec(family="polynomial", degree=2.0)
        assert kernels.kernel_eval([1.0], [2.0], spec) == 9.0


def label_signed(gram, labels):
    """The label-signed form ``diag(y) G diag(y)`` of a ridge Gram block."""
    y = np.asarray(labels, dtype=float)
    return y[:, None] * gram * y[None, :]


class TestQMatrix:
    """The one ridge Gram; the SVM's signed form only flips signs of it."""

    def test_signed_assembly(self):
        # K = [[1, .5], [.5, 1]] via linear kernel on unit vectors with dot .5
        x = np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        spec = KernelSpec(family="linear", ridge=0.5)
        q = kernels.q_matrix_svr(x, spec)
        assert np.allclose(q, [[1.5, 0.5], [0.5, 1.5]])
        assert np.allclose(label_signed(q, [1.0, -1.0]), [[1.5, -0.5], [-0.5, 1.5]])

    def test_no_ridge_positive_labels(self):
        x = np.random.default_rng(1).standard_normal((4, 3))
        spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.0)
        q = kernels.q_matrix_svr(x, spec)
        assert np.array_equal(label_signed(q, np.ones(4)), q)
        assert np.allclose(q, kernels.kernel_matrix(x, x, spec))

    def test_single_sample(self):
        spec = KernelSpec(family="linear", ridge=0.25)
        q = kernels.q_matrix_svr([[2.0]], spec)
        assert np.allclose(q, [[4.25]])
        assert np.array_equal(label_signed(q, [-1.0]), q)

    def test_rbf_ridge_is_positive_definite(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, 2))
        y = np.where(rng.standard_normal(30) > 0, 1.0, -1.0)
        q = kernels.q_matrix_svr(x, KernelSpec(family="rbf", sigma=1.0, ridge=0.5))
        assert np.array_equal(q, q.T)  # exactly symmetric: batch reads rows for columns
        linalg.invert_spd(q)  # raises if not SPD
        linalg.invert_spd(label_signed(q, y))


class TestQMatrixSvr:
    def test_identity_plus_ridge(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]]) * 10  # effectively orthogonal rbf
        spec = KernelSpec(family="rbf", sigma=0.1, ridge=0.5)
        q = kernels.q_matrix_svr(x, spec)
        assert np.allclose(q, 1.5 * np.eye(2), atol=1e-12)

    def test_zero_ridge_unchanged(self):
        x = np.random.default_rng(3).standard_normal((5, 2))
        spec = KernelSpec(family="polynomial", degree=2, ridge=0.0)
        assert np.allclose(
            kernels.q_matrix_svr(x, spec), kernels.kernel_matrix(x, x, spec)
        )

    def test_rbf_diagonal(self):
        x = np.random.default_rng(4).standard_normal((3, 2))
        q = kernels.q_matrix_svr(x, KernelSpec(family="rbf", sigma=1.0, ridge=0.3))
        assert np.allclose(np.diag(q), 1.3)


class TestColumnBlock:
    """``ColumnCache.block``: the ridge where a row meets itself, none across rows."""

    def test_ridge_on_matching_rows_only(self):
        x = np.array([[1.0], [2.0], [3.0]])
        spec = KernelSpec(family="linear", ridge=0.5)
        cache = kernels.ColumnCache(x, spec)
        plain = kernels.kernel_matrix(x, x, spec)
        own = cache.block(np.array([0, 2]), np.array([0, 2]))
        assert np.allclose(own, plain[np.ix_([0, 2], [0, 2])] + 0.5 * np.eye(2))
        cross = cache.block(np.array([0, 2]), np.array([1]))
        assert np.allclose(cross, plain[np.ix_([0, 2], [1])])

    def test_duplicate_features_distinct_rows_unridged(self):
        x = np.array([[1.0], [1.0]])
        spec = KernelSpec(family="linear", ridge=0.5)
        cache = kernels.ColumnCache(x, spec)
        assert np.allclose(cache.block(np.array([0, 1]), np.array([0, 1])),
                           [[1.5, 1.0], [1.0, 1.5]])
        assert np.allclose(cache.block(np.array([0]), np.array([1])), [[1.0]])

    def test_fills_only_missing_columns(self):
        x = np.random.default_rng(7).standard_normal((6, 2))
        spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
        cache = kernels.ColumnCache(x, spec)
        cache.apply([1], np.ones(1))
        block = cache.block(np.array([4, 1, 3]), np.array([1, 3]))
        assert cache.entries == 2 * x.shape[0]  # row 1's column was kept, row 3's is new
        dense = kernels.q_matrix_svr(x, spec)
        assert np.max(np.abs(block - dense[np.ix_([4, 1, 3], [1, 3])])) <= 1e-12
        assert np.allclose(cache.apply_at([4, 1, 3], [1, 3], [2.0, -1.0]),
                           block @ [2.0, -1.0], rtol=0, atol=1e-15)


RESTRICTED_SPECS = (
    KernelSpec(family="linear", ridge=0.5),
    KernelSpec(family="polynomial", degree=3, ridge=0.5),
    KernelSpec(family="rbf", sigma=0.8, ridge=0.5),
)


def coefficient_state(kind, pattern, seed=0, n=12):
    """State whose dual coefficients are zero, nonzero or mixed by ``pattern``."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    labels = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    mult = rng.uniform(0.1, 0.9, n)
    if pattern == "zero":
        mult[:] = 0.0
    elif pattern == "mixed":
        mult[rng.permutation(n)[: 2 * n // 3]] = 0.0
    samples = [Sample(i, x[i], labels[i]) for i in range(n)]
    if kind == "svm":
        return model.SvmState(samples, alpha=mult, b=0.3)
    return model.SvrState(samples, theta=mult * labels, b=0.3)


class TestRestrictedDecisionValues:
    """Evaluation over nonzero-coefficient rows equals the dense formula."""

    @pytest.mark.parametrize("spec", RESTRICTED_SPECS, ids=lambda s: s.family)
    @pytest.mark.parametrize("pattern", ["zero", "mixed", "all"])
    @pytest.mark.parametrize("kind", ["svm", "svr"])
    def test_matches_dense(self, kind, pattern, spec):
        state = coefficient_state(kind, pattern)
        coeffs = state.dual_coefficients
        xq = np.random.default_rng(1).standard_normal((7, 3))

        dense_test = kernels.kernel_matrix(xq, state.X, spec) @ coeffs + state.b
        got_test = kernels.decision_values(xq, state, spec)
        assert np.max(np.abs(got_test - dense_test)) <= 1e-12

        dense_train = (kernels.kernel_matrix(state.X, state.X, spec) @ coeffs
                       + state.b + spec.ridge * coeffs)
        got_train = kernels.training_decision_values(state, spec)
        assert np.max(np.abs(got_train - dense_train)) <= 1e-12

    @pytest.mark.parametrize("kind", ["svm", "svr"])
    def test_all_zero_coefficients_give_the_bias(self, kind):
        state = coefficient_state(kind, "zero")
        spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
        xq = np.ones((4, 3))
        assert np.array_equal(kernels.decision_values(xq, state, spec), np.full(4, 0.3))
        assert np.array_equal(kernels.training_decision_values(state, spec),
                              np.full(state.n, 0.3))


CACHE_SPECS = [
    KernelSpec(family="linear", ridge=0.5),
    KernelSpec(family="polynomial", degree=3, offset=1.0, ridge=0.3),
    KernelSpec(family="rbf", sigma=1.5, ridge=0.7),
]


def cache_rows(n=60, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    x[7] = x[3]  # two distinct rows with identical features
    return x, np.where(rng.standard_normal(n) > 0, 1.0, -1.0)


def dense_product(x, y, rows, coef, spec, signed):
    """Reference for the products the engines form: ``G[:, rows] @ coef``, or
    with labels at both edges ``y * (G[:, rows] @ (y[rows] * coef))``."""
    block = kernels.q_matrix_svr(x, spec)[:, rows]
    if signed:
        return y * (block @ (y[rows] * coef))
    return block @ coef


def cache_product(cache, y, rows, coef, signed):
    if signed:
        return y * cache.apply(rows, y[rows] * coef)
    return cache.apply(rows, coef)


@pytest.mark.parametrize("signed", [True, False], ids=["svm", "svr"])
@pytest.mark.parametrize("spec", CACHE_SPECS, ids=lambda s: s.family)
class TestColumnCache:
    """``apply`` against the dense ridge-Gram block it replaces, with the
    SVM's labels applied at the edges as the engines apply them."""

    def make(self, spec):
        x, y = cache_rows()
        return kernels.ColumnCache(x, spec), x, y

    def test_matches_dense_block(self, signed, spec):
        cache, x, y = self.make(spec)
        rng = np.random.default_rng(1)
        for rows in ([5, 2, 40, 3], [3, 7, 11], [59, 0, 5], [2]):
            rows = np.array(rows)
            coef = rng.standard_normal(rows.size)
            expect = dense_product(x, y, rows, coef, spec, signed)
            got = cache_product(cache, y, rows, coef, signed)
            assert np.max(np.abs(got - expect)) <= 1e-12

    def test_empty_rows(self, signed, spec):
        cache, x, y = self.make(spec)
        out = cache_product(cache, y, np.zeros(0, dtype=int), np.zeros(0), signed)
        assert out.shape == (x.shape[0],) and not out.any()

    def test_growth_past_the_initial_buffer(self, signed, spec):
        cache, x, y = self.make(spec)
        rng = np.random.default_rng(2)
        order = rng.permutation(x.shape[0])
        for stop in (10, 25, 45, 60):
            rows = order[:stop]
            coef = rng.standard_normal(stop)
            expect = dense_product(x, y, rows, coef, spec, signed)
            got = cache_product(cache, y, rows, coef, signed)
            assert np.max(np.abs(got - expect)) <= 1e-12

    def test_identical_features_stay_unridged_off_the_diagonal(self, signed, spec):
        cache, x, y = self.make(spec)
        sign = y[3] * y[7] if signed else 1.0
        plain = kernels.kernel_matrix(x[3], x[3], spec)[0, 0]
        one = np.ones(1)
        assert cache_product(cache, y, [3], one, signed)[7] == pytest.approx(
            sign * plain, abs=1e-12)
        assert cache_product(cache, y, [7], one, signed)[3] == pytest.approx(
            sign * plain, abs=1e-12)
        assert cache_product(cache, y, [7], one, signed)[7] == pytest.approx(
            plain + spec.ridge, abs=1e-12)

    def test_sync_moves_to_a_new_row_set(self, signed, spec):
        cache, x, y = self.make(spec)
        rng = np.random.default_rng(3)
        cache.apply([3, 7, 20, 41], np.ones(4))
        slots = cache.rows.copy()
        # rows 3 and 20 leave, seven arrive; 7, 41 stay, 41 without its column
        keep_rows = np.setdiff1d(np.arange(x.shape[0]), [3, 20])
        arriving = rng.standard_normal((7, 3))
        arriving[0] = x[7]  # an arrival with the features of a kept column's row
        x_new = np.vstack([x[keep_rows], arriving])
        y_new = np.concatenate([y[keep_rows], np.ones(7)])
        slots_new = np.concatenate([slots[keep_rows], np.full(7, -1)])
        keep = np.isin(np.arange(x_new.shape[0]), np.searchsorted(keep_rows, [7]))
        before = cache.entries
        cache.sync(x_new, slots_new, keep)
        assert cache.entries - before == 7 * 1  # seven arrivals x the one kept column
        assert (slots_new >= 0).all() and np.unique(slots_new).size == slots_new.size
        assert set(slots_new[-7:]) >= {slots[3], slots[20]}  # freed slots are refilled
        for rows in ([57, 5, 58], [np.searchsorted(keep_rows, 7), 2], [63, 64]):
            rows = np.array(rows)
            coef = rng.standard_normal(rows.size)
            expect = dense_product(x_new, y_new, rows, coef, spec, signed)
            got = cache_product(cache, y_new, rows, coef, signed)
            assert np.max(np.abs(got - expect)) <= 1e-12

    def test_zero_coefficients_evaluate_no_column(self, signed, spec):
        cache, x, y = self.make(spec)
        cache_product(cache, y, [4, 9, 30], np.array([0.0, 1.5, 0.0]), signed)
        assert cache.entries == x.shape[0]


def full_buffer_product(cache, rows, coef):
    """``ColumnCache.apply`` as one product over every column of the buffer."""
    slots = cache.rows[np.asarray(rows)]
    weights = np.bincount(cache._column[slots], weights=coef, minlength=cache._owner.size)
    return (cache._buf[:, :cache._owner.size] @ weights)[cache.rows]


@pytest.mark.parametrize("spec", CACHE_SPECS, ids=lambda s: s.family)
class TestNarrowColumnProduct:
    """A product over a few of the buffer's columns gathers them alone; it
    matches the product over the whole buffer."""

    @staticmethod
    def assert_narrow(cache, x, rows, coef, spec):
        rows = np.asarray(rows)
        got = cache.apply(rows, coef)
        # the columns multiplied are at most a quarter of the buffer's
        assert 4 * np.unique(cache._column[cache.rows[rows]]).size <= cache._owner.size
        assert np.max(np.abs(got - full_buffer_product(cache, rows, coef))) <= 1e-12
        assert np.max(np.abs(got - dense_product(x, None, rows, coef, spec, False))) <= 1e-12

    def test_few_columns_of_a_full_buffer(self, spec):
        x, _ = cache_rows()
        cache = kernels.ColumnCache(x, spec)
        cache.apply(np.arange(40), np.ones(40))  # 40 columns, rows 3 and 7 among them
        rng = np.random.default_rng(4)
        # identical features, a row given twice, and a column not yet in the buffer
        for rows in ([3, 7], [7, 3, 12, 3], [3, 55], np.arange(10)):
            self.assert_narrow(cache, x, rows, rng.standard_normal(len(rows)), spec)

    def test_after_a_sync_that_moved_slots(self, spec):
        x, _ = cache_rows()
        cache = kernels.ColumnCache(x, spec)
        cache.apply(np.arange(0, 60, 2), np.ones(30))
        slots = cache.rows.copy()
        # the first ten rows leave, their slots freed; five arrive, one with row 20's features
        keep_rows = np.arange(10, 60)
        arriving = np.random.default_rng(5).standard_normal((5, 3))
        arriving[2] = x[20]
        x_new = np.vstack([x[keep_rows][::-1], arriving])  # the kept rows also reorder
        slots_new = np.concatenate([slots[keep_rows][::-1], np.full(5, -1)])
        cache.sync(x_new, slots_new, np.ones(x_new.shape[0], dtype=bool))
        assert set(slots_new[50:]) <= set(slots[:10])  # the arrivals take the freed slots
        rng = np.random.default_rng(6)
        for rows in ([0, 52], [39, 52, 53], [4]):  # row 39 holds x[20], row 52 its twin
            self.assert_narrow(cache, x_new, rows, rng.standard_normal(len(rows)), spec)


def reference_kernel(a, b, spec):
    """The kernel formula written with temporaries, as a plain reference."""
    if spec.family == "linear":
        return a @ b.T
    if spec.family == "polynomial":
        return (a @ b.T + spec.offset) ** spec.degree
    sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-sq / (2.0 * spec.sigma**2))


def negate_then_divide_kernel(a, b, spec):
    """The in-place sequence ``kernel_matrix`` ran before rbf folded its negation."""
    if spec.family == "linear":
        return np.matmul(a, b.T)
    if spec.family == "polynomial":
        k = np.matmul(a, b.T)
        k += spec.offset
        k **= spec.degree
        return k
    k = distance.cdist(a, b, metric="sqeuclidean")
    np.negative(k, out=k)
    k /= 2.0 * spec.sigma**2
    return np.exp(k, out=k)


@pytest.mark.parametrize("spec", CACHE_SPECS + [KernelSpec(family="polynomial", degree=2)],
                         ids=lambda s: f"{s.family}{s.degree if s.family == 'polynomial' else ''}")
class TestKernelMatrixInPlace:
    """``kernel_matrix`` computes in one array, its own or the caller's."""

    def test_fresh_result_matches_the_formula(self, spec):
        x, _ = cache_rows()
        got = kernels.kernel_matrix(x[:9], x, spec)
        assert got.shape == (9, x.shape[0])
        assert np.max(np.abs(got - reference_kernel(x[:9], x, spec))) <= 1e-12

    def test_out_is_filled_and_returned(self, spec):
        x, _ = cache_rows()
        fresh = kernels.kernel_matrix(x[:9], x, spec)
        out = np.full((9, x.shape[0]), np.nan)
        assert kernels.kernel_matrix(x[:9], x, spec, out=out) is out
        assert np.array_equal(out, fresh)

    def test_same_bits_as_negating_before_dividing(self, spec):
        # rbf divides by -(2 sigma^2) instead of negating and then dividing
        # by 2 sigma^2: IEEE division is symmetric in sign
        x, _ = cache_rows()
        assert np.array_equal(kernels.kernel_matrix(x[:9], x, spec),
                              negate_then_divide_kernel(x[:9], x, spec))

    def test_out_can_be_a_transposed_column_block(self, spec):
        x, _ = cache_rows()
        buf = np.full((x.shape[0], 12), np.nan, order="F")
        kernels.kernel_matrix(x[[4, 0, 9]], x, spec, out=buf[:, 5:8].T)
        assert np.max(np.abs(buf[:, 5:8] - kernels.kernel_matrix(x, x[[4, 0, 9]], spec))) <= 1e-12
        assert np.isnan(buf[:, :5]).all() and np.isnan(buf[:, 8:]).all()
