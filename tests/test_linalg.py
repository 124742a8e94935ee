import copy
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from ridgesvm import kernels, linalg
from ridgesvm.errors import (
    NotPositiveDefinite,
    SingularBorder,
    SingularCornerBlock,
    SingularSchurBlock,
)


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a.T @ a + np.eye(n)


def e0(order):
    """The unit vector of the border row; ``apply(e0(order))[0]`` is the live inverse's corner."""
    out = np.zeros(order + 1)
    out[0] = 1.0
    return out


class TestInvertSpd:
    def test_scalar_reciprocal(self):
        assert np.allclose(linalg.invert_spd([[2.0]]), [[0.5]])

    def test_identity(self):
        assert np.allclose(linalg.invert_spd(np.eye(3)), np.eye(3))

    def test_two_by_two_hand_adjugate(self):
        # det = 3, adjugate [[2,-1],[-1,2]]
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        expected = np.array([[2 / 3, -1 / 3], [-1 / 3, 2 / 3]])
        assert np.allclose(linalg.invert_spd(m), expected, atol=1e-12)

    def test_product_is_identity(self):
        rng = np.random.default_rng(7)
        for n in (1, 5, 20, 60):
            m = random_spd(rng, n)
            inv = linalg.invert_spd(m)
            assert np.max(np.abs(m @ inv - np.eye(n))) <= 1e-8

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.invert_spd(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_rejects_tiny_pivot(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.invert_spd(np.diag([1.0, 1e-13]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            linalg.invert_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestBorderedInverse:
    def test_order_one(self):
        out = linalg.bordered_inverse([[2.0]], [1.0])
        assert out.apply(e0(1))[0] == pytest.approx(-2.0)
        assert np.allclose(out.inv, [[-2.0, 1.0], [1.0, 0.0]])

    def test_identity_block_by_adjugate(self):
        out = linalg.bordered_inverse(np.eye(2), [1.0, -1.0])
        expected = np.array(
            [[-0.5, 0.5, -0.5], [0.5, 0.5, 0.5], [-0.5, 0.5, 0.5]]
        )
        assert out.apply(e0(2))[0] == pytest.approx(-0.5)
        assert np.allclose(out.inv, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_all_ones_border_identity_block(self, n):
        out = linalg.bordered_inverse(np.eye(n), np.ones(n))
        assert out.apply(e0(n))[0] == pytest.approx(-1.0 / n)

    def test_product_with_bordered_matrix(self):
        rng = np.random.default_rng(3)
        for n in (1, 4, 17):
            q = random_spd(rng, n)
            v = rng.standard_normal(n)
            out = linalg.bordered_inverse(q, v)
            full = np.zeros((n + 1, n + 1))
            full[0, 1:] = v
            full[1:, 0] = v
            full[1:, 1:] = q
            assert np.max(np.abs(full @ out.inv - np.eye(n + 1))) <= 1e-8
            assert np.allclose(out.inv, out.inv.T, atol=1e-10)
            assert out.inv[0, 0] == pytest.approx(out.apply(e0(n))[0])

    def test_singular_border(self):
        # an indefinite block where v^T Q^-1 v = 0; it stops at the definiteness check
        q = np.diag([1.0, -1.0])
        with pytest.raises(SingularBorder):
            linalg.bordered_inverse(q, [1.0, 1.0])

    def test_rejects_a_nonsingular_indefinite_block(self):
        # LU would invert it (v^T Q^-1 v = -1/2), but Q must be positive definite
        with pytest.raises(SingularBorder):
            linalg.bordered_inverse(np.diag([2.0, -1.0]), [1.0, 1.0])

    def test_rejects_a_tiny_pivot(self):
        with pytest.raises(SingularBorder):
            linalg.bordered_inverse(np.diag([1.0, 1e-13]), [1.0, 1.0])

    def test_zero_border_of_a_positive_definite_block(self):
        # Q passes the definiteness check; border^T Q^-1 border = 0 raises
        with pytest.raises(SingularBorder, match="border"):
            linalg.bordered_inverse(2.0 * np.eye(2), [0.0, 0.0])

    def test_inverse_is_exactly_symmetric(self):
        q = random_spd(np.random.default_rng(5), 9)
        inv = linalg.bordered_inverse(q, np.ones(9)).inv
        assert np.array_equal(inv, inv.T)

    def test_ridge_gram_residual_no_worse_than_lu(self):
        """An rbf ridge Gram of the order the path follower rebuilds: the Cholesky
        inverse's residual is within twice that of LU against the identity."""
        n = 530
        x = np.random.default_rng(11).standard_normal((n, 2))
        q = kernels.q_matrix_svr(x, kernels.KernelSpec(family="rbf", sigma=1.0, ridge=0.05))
        full = np.ones((n + 1, n + 1))
        full[0, 0] = 0.0
        full[1:, 1:] = q
        q_inv = sla.lu_solve(sla.lu_factor(q), np.eye(n))
        u = q_inv @ np.ones(n)
        z = -1.0 / u.sum()
        w = np.concatenate(([-1.0], u))
        lu_inv = z * np.outer(w, w)
        lu_inv[1:, 1:] += 0.5 * (q_inv + q_inv.T)
        residual = lambda inv: np.linalg.norm(full @ inv - np.eye(n + 1), np.inf)
        assert residual(linalg.bordered_inverse(q, np.ones(n)).inv) <= 2.0 * residual(lu_inv)


class TestInverseGrow:
    def test_block_diagonal_growth(self):
        out = linalg.inverse_grow(np.array([[1.0]]), np.array([[0.0]]), np.array([[2.0]]))
        assert np.allclose(out, np.diag([1.0, 0.5]))

    def test_matches_direct_inverse_small(self):
        out = linalg.inverse_grow(np.array([[0.5]]), np.array([[1.0]]), np.array([[2.0]]))
        expected = linalg.invert_spd(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(out, expected, atol=1e-12)

    def test_matches_direct_inverse_random(self):
        rng = np.random.default_rng(11)
        full = random_spd(rng, 13)
        prev = full[:10, :10]
        out = linalg.inverse_grow(
            linalg.invert_spd(prev), full[:10, 10:], full[10:, 10:]
        )
        expected = linalg.invert_spd(full)
        assert np.linalg.norm(out - expected) / np.linalg.norm(expected) <= 1e-8

    def test_zero_growth_is_identity_update(self):
        prev = linalg.invert_spd(random_spd(np.random.default_rng(0), 4))
        out = linalg.inverse_grow(prev, np.zeros((4, 0)), np.zeros((0, 0)))
        assert np.array_equal(out, prev)


class TestInverseShrink:
    def test_remove_second_index(self):
        prev = np.array([[2 / 3, -1 / 3], [-1 / 3, 2 / 3]])
        out = linalg.inverse_shrink(prev, [1])
        assert np.allclose(out, [[0.5]], atol=1e-12)

    def test_block_diagonal(self):
        out = linalg.inverse_shrink(np.diag([1.0, 0.5]), [1])
        assert np.allclose(out, [[1.0]])

    def test_matches_direct_inverse_random(self):
        rng = np.random.default_rng(5)
        full = random_spd(rng, 12)
        removed = [2, 5, 6, 11]
        keep = [i for i in range(12) if i not in removed]
        out = linalg.inverse_shrink(linalg.invert_spd(full), removed)
        expected = linalg.invert_spd(full[np.ix_(keep, keep)])
        assert np.linalg.norm(out - expected) / np.linalg.norm(expected) <= 1e-8

    def test_singular_corner(self):
        # shrinking the inverse of a bordered matrix at its zero corner
        inv = np.array([[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(SingularCornerBlock):
            linalg.inverse_shrink(inv, [0])


class TestGrowShrink:
    def test_noop(self):
        prev = linalg.invert_spd(random_spd(np.random.default_rng(1), 3))
        out = linalg.inverse_grow_shrink(prev, np.zeros((3, 0)), np.zeros((0, 0)), [])
        assert np.array_equal(out, prev)

    def test_grow_one_shrink_one(self):
        rng = np.random.default_rng(21)
        full = random_spd(rng, 4)  # rows 0..2 old, row 3 new
        prev = full[:3, :3]
        out = linalg.inverse_grow_shrink(
            linalg.invert_spd(prev), full[:3, 3:], full[3:, 3:], [1]
        )
        keep = [0, 2, 3]
        expected = linalg.invert_spd(full[np.ix_(keep, keep)])
        assert np.allclose(out, expected, atol=1e-9)

    def test_grow_three_shrink_two(self):
        rng = np.random.default_rng(22)
        full = random_spd(rng, 13)  # 10 old + 3 new
        prev = full[:10, :10]
        removed = [0, 7]
        out = linalg.inverse_grow_shrink(
            linalg.invert_spd(prev), full[:10, 10:], full[10:, 10:], removed
        )
        keep = [i for i in range(13) if i not in removed]
        expected = linalg.invert_spd(full[np.ix_(keep, keep)])
        assert np.linalg.norm(out - expected) / np.linalg.norm(expected) <= 1e-8

    def test_removed_cross_rows_are_ignored(self):
        """Rows of ``q_cross`` at removed indices are zeroed before the rewrite,
        so even huge entries there do not leak into the result."""
        rng = np.random.default_rng(22)
        full = random_spd(rng, 13)  # 10 old + 3 new
        prev_inv = linalg.invert_spd(full[:10, :10])
        removed = [0, 7]
        cross = full[:10, 10:].copy()
        cross[removed] = 0.0
        zeroed = linalg.inverse_grow_shrink(prev_inv, cross, full[10:, 10:], removed)
        cross[removed] = 1e6
        huge = linalg.inverse_grow_shrink(prev_inv, cross, full[10:, 10:], removed)
        assert np.max(np.abs(huge - zeroed)) <= 1e-12 * np.max(np.abs(zeroed))

    def test_order_independence(self):
        rng = np.random.default_rng(23)
        full = random_spd(rng, 9)  # 6 old + 3 new
        prev_inv = linalg.invert_spd(full[:6, :6])
        cross = full[:6, 6:]
        new = full[6:, 6:]
        removed = [1, 4]
        combined = linalg.inverse_grow_shrink(prev_inv, cross, new, removed)
        grown = linalg.inverse_grow(prev_inv, cross, new)
        shrunk_after = linalg.inverse_shrink(grown, removed)
        assert np.allclose(combined, shrunk_after, atol=1e-10)

    @pytest.mark.parametrize("removed", [[-1], [7], [2, 8]])
    def test_removed_id_out_of_range(self, removed):
        """An id outside ``[0, n)`` is refused as by :func:`inverse_shrink`, not
        read as numpy's index from the end or left to numpy's bounds check."""
        rng = np.random.default_rng(24)
        full = random_spd(rng, 8)  # 7 old + 1 new
        prev_inv = linalg.invert_spd(full[:7, :7])
        for update in (lambda: linalg.inverse_grow_shrink(prev_inv, full[:7, 7:], full[7:, 7:],
                                                           removed),
                       lambda: linalg.inverse_shrink(prev_inv, removed)):
            with pytest.raises(IndexError, match="out of range for order 7"):
                update()

    def test_grow_and_shrink_are_its_cases(self):
        rng = np.random.default_rng(25)
        full = random_spd(rng, 9)  # 6 old + 3 new
        prev_inv = linalg.invert_spd(full[:6, :6])
        assert np.array_equal(
            linalg.inverse_grow(prev_inv, full[:6, 6:], full[6:, 6:]),
            linalg.inverse_grow_shrink(prev_inv, full[:6, 6:], full[6:, 6:], []))
        assert np.array_equal(
            linalg.inverse_shrink(prev_inv, [4, 1]),
            linalg.inverse_grow_shrink(prev_inv, np.zeros((6, 0)), np.zeros((0, 0)), [1, 4]))


class TestProperties:
    def test_grow_shrink_round_trip(self):
        rng = np.random.default_rng(9)
        for n in (2, 6, 15):
            full = random_spd(rng, n + 3)
            prev_inv = linalg.invert_spd(full[:n, :n])
            grown = linalg.inverse_grow(prev_inv, full[:n, n:], full[n:, n:])
            back = linalg.inverse_shrink(grown, list(range(n, n + 3)))
            assert np.max(np.abs(back - prev_inv)) <= 1e-10

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(13)
        full = random_spd(rng, 20)
        prev_inv = linalg.invert_spd(full[:16, :16])
        grown = linalg.inverse_grow(prev_inv, full[:16, 16:], full[16:, 16:])
        assert np.max(np.abs(grown - grown.T)) <= 1e-10
        shrunk = linalg.inverse_shrink(grown, [3, 9])
        assert np.max(np.abs(shrunk - shrunk.T)) <= 1e-10

    def test_random_sizes_against_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 56))
            k = int(rng.integers(1, 6))
            full = random_spd(rng, n + k)
            prev_inv = linalg.invert_spd(full[:n, :n])
            grown = linalg.inverse_grow(prev_inv, full[:n, n:], full[n:, n:])
            target = linalg.invert_spd(full)
            rel = np.linalg.norm(grown - target) / np.linalg.norm(target)
            assert rel <= 1e-8


def random_bordered(rng, n):
    """A bordered inverse over a random SPD block with a +-1 border."""
    q = random_spd(rng, n)
    border = rng.choice([-1.0, 1.0], size=n)
    return q, border, linalg.bordered_inverse(q, border)


def bordered_matrix(q, border, rows):
    rows = list(rows)
    m = np.zeros((len(rows) + 1, len(rows) + 1))
    m[0, 1:] = m[1:, 0] = border[rows]
    m[1:, 1:] = q[np.ix_(rows, rows)]
    return m


class TestDeferredShrink:
    """Drops carried by a BorderedInverse act like the explicit shrink."""

    def test_apply_matches_explicit_shrink(self):
        rng = np.random.default_rng(31)
        _, _, full = random_bordered(rng, 12)
        # two shrinks in a row; positions count the border row as 0
        lazy = full.shrink([2, 5]).shrink([3, 8])
        explicit = linalg.inverse_shrink(linalg.inverse_shrink(full.inv, [2, 5]), [3, 8])
        assert lazy.inv is full.inv
        assert lazy.order == 8
        assert lazy.apply(e0(8))[0] == pytest.approx(explicit[0, 0], abs=1e-12)
        rhs = rng.standard_normal(lazy.order + 1)
        assert np.max(np.abs(lazy.apply(rhs) - explicit @ rhs)) <= 1e-10

    def test_ids_follow_the_live_rows(self):
        rng = np.random.default_rng(32)
        _, _, full = random_bordered(rng, 6)
        named = linalg.BorderedInverse(full.order, full.inv, ids=np.arange(10, 16))
        assert list(named.shrink([1, 4]).shrink([2]).ids) == [11, 14, 15]

    def test_compact_matches_explicit_shrink(self):
        rng = np.random.default_rng(33)
        _, _, full = random_bordered(rng, 10)
        lazy = full.shrink([1, 7])
        compact = lazy.compact()
        assert compact.pending is None and compact.order == 8
        expected = linalg.inverse_shrink(full.inv, [1, 7])
        assert np.max(np.abs(compact.inv - expected)) <= 1e-10
        assert np.array_equal(compact.inv, compact.inv.T)

    @pytest.mark.parametrize("joins", [[10, 11, 12], [1, 6, 11]])
    def test_grow_absorbs_drops(self, joins):
        """A grow over pending drops solves over the live rows and materialises
        to the rebuilt inverse.  Sorted joins append; interleaved ones need the
        permutation."""
        rng = np.random.default_rng(34)
        n = 13
        q, border, _ = random_bordered(rng, n)
        old = [i for i in range(n) if i not in joins]
        start = linalg.bordered_inverse(q[np.ix_(old, old)], border[old])
        lazy = start.shrink([2, 5])  # old[1] and old[4] leave
        live = [r for i, r in enumerate(old) if i not in (1, 4)]
        cross = np.vstack([border[joins][None, :], q[np.ix_(live, joins)]])
        grown_rows = live + joins
        order = np.argsort(grown_rows)
        grown = lazy.grow(cross, q[np.ix_(joins, joins)], order=order)
        final = sorted(grown_rows)
        rebuilt = linalg.bordered_inverse(q[np.ix_(final, final)], border[final])
        assert np.max(np.abs(grown.apply(np.eye(len(final) + 1)) - rebuilt.inv)) <= 1e-10
        grown = grown.compact()
        assert grown.order == len(final) and grown.pending is None
        assert np.max(np.abs(grown.inv - rebuilt.inv)) <= 1e-10
        # the same as an explicit shrink followed by a grow, then permuted
        two_step = linalg.inverse_grow(linalg.inverse_shrink(start.inv, [2, 5]), cross,
                                       q[np.ix_(joins, joins)])
        perm = np.concatenate(([0], 1 + order))
        assert np.max(np.abs(grown.inv - two_step[np.ix_(perm, perm)])) <= 1e-10
        assert np.max(np.abs(bordered_matrix(q, border, final) @ grown.inv
                             - np.eye(len(final) + 1))) <= 1e-10

    def test_leave_and_rejoin(self):
        rng = np.random.default_rng(35)
        q, border, full = random_bordered(rng, 9)
        lazy = full.shrink([4, 6])  # rows 3 and 5 leave
        live = [0, 1, 2, 4, 6, 7, 8]
        cross = np.vstack([border[[3]][None, :], q[np.ix_(live, [3])]])
        back = lazy.grow(cross, q[np.ix_([3], [3])], order=np.argsort(live + [3]))
        rows = [0, 1, 2, 3, 4, 6, 7, 8]
        expected = linalg.bordered_inverse(q[np.ix_(rows, rows)], border[rows])
        assert np.max(np.abs(back.apply(np.eye(len(rows) + 1)) - expected.inv)) <= 1e-10
        assert np.max(np.abs(back.compact().inv - expected.inv)) <= 1e-10

    def test_singular_dropped_corner_raises(self):
        # the inverse of [[0, 1], [1, -2]]: its inner entry is zero
        inv = linalg.BorderedInverse(order=1, inv=np.array([[2.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(SingularCornerBlock):
            inv.shrink([1])

    def test_border_row_cannot_be_dropped(self):
        _, _, full = random_bordered(np.random.default_rng(36), 4)
        with pytest.raises(IndexError):
            full.shrink([0])


class Membership:
    """A BorderedInverse driven by drops and joins of samples, with its reference.

    ``live`` are the samples of the live rows in order; ``left`` the base
    samples that have left since the base was built, rejoined or not.
    """

    def __init__(self, q, border, base):
        self.q, self.border = q, border
        self.base, self.live, self.left = list(base), sorted(base), set()
        self.inv = replace(self.rebuilt_inverse(), ids=np.array(self.live))

    def drop(self, samples):
        self.inv = self.inv.shrink([1 + self.live.index(r) for r in samples])
        self.live = [r for r in self.live if r not in samples]
        self.left |= set(samples) & set(self.base)

    def join(self, samples):
        cross = np.vstack([self.border[samples][None, :], self.q[np.ix_(self.live, samples)]])
        grown = self.live + list(samples)
        self.live = sorted(grown)
        self.inv = self.inv.grow(cross, self.q[np.ix_(samples, samples)],
                                 ids=np.array(self.live), order=np.argsort(grown))

    def rebuilt_inverse(self):
        return linalg.bordered_inverse(self.q[np.ix_(self.live, self.live)],
                                       self.border[self.live])

    def grow_shrink_reference(self):
        """``_grow_shrink`` of the base inverse: every base row that left is
        removed, and every live sample not on a kept base row joins."""
        base_inv = linalg.bordered_inverse(self.q[np.ix_(self.base, self.base)],
                                           self.border[self.base]).inv
        kept = [r for r in self.base if r not in self.left]
        joins = [r for r in self.live if r not in kept]
        removed = np.array(sorted(1 + self.base.index(r) for r in self.left), dtype=int)
        cross = np.vstack([self.border[joins][None, :], self.q[np.ix_(self.base, joins)]])
        order = np.concatenate(([0], 1 + np.argsort(kept + joins)))
        prod = base_inv @ cross
        return linalg._grow_shrink(base_inv, removed, prod,
                                   self.q[np.ix_(joins, joins)] - cross.T @ prod, order)

    def check(self):
        rebuilt = self.rebuilt_inverse().inv
        assert self.inv.pending is not None  # nothing was rewritten
        assert self.inv.order == len(self.live) and list(self.inv.ids) == self.live
        assert self.inv.apply(e0(self.inv.order))[0] == pytest.approx(rebuilt[0, 0], abs=1e-10)
        assert np.max(np.abs(self.inv.apply(np.eye(len(self.live) + 1)) - rebuilt)) <= 1e-10
        materialised = self.inv.compact().inv
        assert np.max(np.abs(materialised - rebuilt)) <= 1e-10
        if len(self.left) < len(self.base):
            assert np.max(np.abs(materialised - self.grow_shrink_reference())) <= 1e-10


class TestFactoredInverse:
    """Drops and joins carried as pending columns of the base inverse."""

    @staticmethod
    def membership(seed, base):
        rng = np.random.default_rng(seed)
        q, border, _ = random_bordered(rng, 30)
        return rng, Membership(q, border, base)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_interleaved_drops_and_joins(self, seed):
        rng, m = self.membership(40 + seed, range(0, 20, 2))
        # eight changes of at most two rows stay within the 16 pending columns
        for _ in range(8):
            out = [r for r in range(30) if r not in m.live]
            k = int(rng.integers(1, 3))
            if len(m.live) > k and rng.random() < 0.5:
                m.drop([int(r) for r in rng.choice(m.live, k, replace=False)])
            else:
                m.join([int(r) for r in rng.choice(out, k, replace=False)])
            m.check()

    def test_pending_join_that_leaves(self):
        _, m = self.membership(50, range(8))
        m.join([20, 21])
        m.drop([3])
        m.drop([20])
        # joins 20 and 21, sample 3 dropped at base row 4 (the border is 0), then
        # the pin that holds join 20 at zero
        assert list(m.inv.pending.rows) == [-1, -1, 4, -2]
        m.check()

    def test_dropped_base_row_whose_sample_rejoins(self):
        _, m = self.membership(51, range(8))
        m.drop([2, 5])
        m.join([5, 12])
        m.check()
        m.drop([5])
        m.check()

    def test_every_base_row_dropped_while_joins_keep_s(self):
        _, m = self.membership(52, range(6))
        m.join([20, 21])
        m.drop([0, 1, 2])
        m.check()
        m.drop([3, 4, 5])
        m.check()
        m.join([2, 22])
        m.check()

    def test_shared_pending_arrays_are_never_written(self):
        _, m = self.membership(53, range(12))
        m.drop([4])
        m.join([20])
        branch = copy.copy(m)
        branch.live, branch.left = list(m.live), set(m.left)
        pending = m.inv.pending
        arrays = [m.inv.inv, pending.ht, pending.cap, *pending.lu]
        before = [a.copy() for a in arrays]
        m.drop([7])
        m.join([21, 22])
        branch.join([23])  # a second extension of the shared inverse
        branch.drop([20])
        for a, b in zip(arrays, before):
            assert np.array_equal(a, b)
        m.check()
        branch.check()

    @pytest.mark.parametrize("order", [40, 100])
    def test_rewrite_once_pending_passes_the_limit(self, order):
        rng = np.random.default_rng(54)
        q, border, full = random_bordered(rng, order)
        base, cur = full.inv, full
        for drops in range(1, order):
            cur = cur.shrink([1])
            if cur.pending is None:
                break
            assert cur.inv is base and cur.pending.rows.size == drops
        assert drops > max(16, (order - drops) / 4) and drops - 1 <= max(16, (order - drops + 1) / 4)
        rows = list(range(drops, order))
        expected = linalg.bordered_inverse(q[np.ix_(rows, rows)], border[rows])
        assert np.max(np.abs(cur.inv - expected.inv)) <= 1e-10

    def test_singular_join_raises(self):
        q, border, full = random_bordered(np.random.default_rng(55), 8)
        lazy = full.shrink([2])
        live = [0, 2, 3, 4, 5, 6, 7]
        # a join that duplicates sample 3 (live position 3) makes the live
        # matrix singular
        cross = bordered_matrix(q, border, live)[:, [3]]
        with pytest.raises(SingularSchurBlock):
            lazy.grow(cross, q[np.ix_([3], [3])])

    def test_dropping_every_live_row_raises(self):
        q, border, full = random_bordered(np.random.default_rng(56), 4)
        cross = np.vstack([[1.0], np.full((4, 1), 0.1)])
        grown = full.grow(cross, [[2.0]])
        with pytest.raises(SingularCornerBlock):
            grown.shrink([1, 2, 3, 4, 5])


class TestExtendedFactors:
    """Appended columns extend the capacitance factors; a pending join that leaves is pinned."""

    @staticmethod
    def spied(monkeypatch):
        calls = {"_extended_lu": 0, "_checked_lu": 0}
        for name in calls:
            fn = getattr(linalg, name)
            monkeypatch.setattr(linalg, name, lambda *a, _f=fn, _n=name:
                                calls.__setitem__(_n, calls[_n] + 1) or _f(*a))
        return calls

    def test_chain_of_drops_and_joins(self, monkeypatch):
        rng = np.random.default_rng(57)
        q, border, _ = random_bordered(rng, 160)
        m = Membership(q, border, range(0, 160, 2))
        calls, left = self.spied(monkeypatch), 0
        for _ in range(64):
            pend = m.inv.pending
            joins = [] if pend is None else m.inv.ids[pend.live[1:] >= m.inv.inv.shape[0]]
            kind = rng.integers(3)
            if kind == 0 and len(joins):  # a pending join leaves: it is pinned
                m.drop([int(rng.choice(joins))])
                left += 1
            elif kind == 1:
                m.drop([int(r) for r in rng.choice(m.live, int(rng.integers(1, 3)), replace=False)])
            else:
                out = [r for r in range(160) if r not in m.live]
                m.join([int(r) for r in rng.choice(out, int(rng.integers(1, 3)), replace=False)])
            rebuilt = m.rebuilt_inverse().inv
            assert np.max(np.abs(m.inv.apply(np.eye(len(m.live) + 1)) - rebuilt)) <= 1e-10
        assert left >= 5 and calls["_extended_lu"] >= 30

    def test_singular_changes_raise_from_the_extension(self, monkeypatch):
        q, border, full = random_bordered(np.random.default_rng(55), 8)
        lazy = full.shrink([2])
        calls = self.spied(monkeypatch)
        # a join that duplicates sample 3 (live position 3) makes the live matrix singular
        cross = bordered_matrix(q, border, [0, 2, 3, 4, 5, 6, 7])[:, [3]]
        with pytest.raises(SingularSchurBlock):
            lazy.grow(cross, q[np.ix_([3], [3])])
        # dropping every inner row leaves the singular [[0]]
        with pytest.raises(SingularCornerBlock):
            lazy.shrink(range(1, 8))
        assert calls == {"_extended_lu": 2, "_checked_lu": 2}


def branch(m):
    """A second holder of ``m``'s inverse, with its own membership from here on."""
    out = copy.copy(m)
    out.live, out.left = list(m.live), set(m.left)
    return out


class TestAppendOnly:
    """Every membership change appends pending columns: a pending join that
    leaves is pinned, the pending arrays a holder reads are never written,
    and a rewrite reuses ``ht``."""

    def test_departing_joins_factor_only_the_change(self, monkeypatch):
        rng = np.random.default_rng(70)
        q, border, _ = random_bordered(rng, 60)
        m = Membership(q, border, range(0, 60, 2))  # 30 base rows: up to 16 pending columns
        m.join([1, 3, 5])
        m.join([7])
        m.drop([10])
        sizes, checked = [], linalg._checked_lu
        monkeypatch.setattr(linalg, "_checked_lu",
                            lambda mat, exc: sizes.append(mat.shape[0]) or checked(mat, exc))
        # joins leave alone, in pairs, beside a base row, and after rejoining
        for kind, samples in (("drop", [3]), ("drop", [1, 7]), ("drop", [12, 5]),
                              ("join", [3]), ("drop", [3])):
            sizes.clear()
            getattr(m, kind)(samples)
            assert sizes and max(sizes) <= len(samples), (kind, samples, sizes)
            m.check()
        # five joins, each pinned once it left, and the drops of base rows 6 and 7 (samples
        # 10 and 12), in the order of the changes; a change appends its drops first
        assert list(m.inv.pending.rows) == [-1] * 4 + [6, -2, -2, -2, 7, -2, -1, -2]

    @pytest.mark.parametrize("first", [0, 1])
    def test_two_holders_extend_one_parent(self, first):
        rng = np.random.default_rng(71)
        q, border, _ = random_bordered(rng, 80)
        parent = Membership(q, border, range(0, 80, 2))  # 40 base rows: up to 16 pending columns
        parent.drop([4])
        parent.join([21, 23])
        pend = parent.inv.pending
        watched = [parent.inv.inv, pend.rows, pend.live, pend.ht, pend.cap, *pend.lu]
        before = [a.tobytes() for a in watched]
        holders = [branch(parent), branch(parent)]
        changes = [
            [("join", [25]), ("drop", [8, 10]), ("join", [27, 29]), ("drop", [23]),
             ("join", [31]), ("drop", [25, 12])],
            [("drop", [21]), ("join", [33, 35]), ("drop", [6]), ("join", [37]),
             ("drop", [33, 14]), ("join", [39])],
        ]
        if first:
            holders.reverse()
        for step in range(6):
            for holder, plan in zip(holders, changes):
                kind, samples = plan[step]
                getattr(holder, kind)(samples)
                holder.check()
                assert [a.tobytes() for a in watched] == before
        parent.check()

    def test_rewrite_reuses_the_joins_ht(self, monkeypatch):
        rng = np.random.default_rng(72)
        q, border, _ = random_bordered(rng, 40)
        m = Membership(q, border, range(0, 40, 2))
        m.join([1, 5, 9])
        m.drop([4, 10])  # base rows dropped after the joins: their cross rows are nonzero
        m.drop([5])  # a pinned join, which the rewrite skips
        m.join([11])
        m.drop([12])
        pend = m.inv.pending
        # joins 1, 5 and 9, base rows 3 and 6 (samples 4 and 10), the pin of join 5,
        # join 11 and base row 7 (sample 12)
        assert list(pend.rows) == [-1, -1, -1, 3, 6, -2, -1, 7]
        handed, rewrite = [], linalg._grow_shrink
        monkeypatch.setattr(linalg, "_grow_shrink",
                            lambda *a: handed.append(a[2]) or rewrite(*a))
        rewritten = m.inv.compact().inv
        # the rows of joins 1, 9 and 11 over the 21 base rows, not a new product with inv
        assert np.array_equal(handed[0], pend.ht[[0, 2, 6]].T)
        assert np.max(np.abs(rewritten - m.rebuilt_inverse().inv)) <= 1e-10
        m.check()


class TestColumns:
    """``columns(P)`` reads the live inverse's columns without a product with ``inv``."""

    @staticmethod
    def assert_columns(inv, positions):
        expected = inv.apply(np.eye(inv.order + 1))[:, positions]
        assert np.max(np.abs(inv.columns(positions) - expected)) <= 1e-12

    def test_nothing_pending(self):
        _, _, full = random_bordered(np.random.default_rng(60), 9)
        assert full.pending is None
        self.assert_columns(full, [0, 3, 9])

    def test_pending_drops(self):
        _, _, full = random_bordered(np.random.default_rng(61), 12)
        lazy = full.shrink([2, 5]).shrink([3])
        assert lazy.pending is not None and (lazy.pending.rows >= 0).all()
        self.assert_columns(lazy, [0, 1, 4, 8, 9])

    def test_pending_joins(self):
        _, m = TestFactoredInverse.membership(62, range(0, 20, 2))
        m.join([5, 13])
        m.drop([8])
        assert (m.inv.pending.rows < 0).sum() == 2
        # the joins, base rows on either side of them and the border
        self.assert_columns(m.inv, [0, 1 + m.live.index(5), 1 + m.live.index(13), 3, 10])

    def test_after_a_pending_join_left(self):
        _, m = TestFactoredInverse.membership(63, range(8))
        m.join([20, 21])
        m.drop([3])
        m.drop([20])  # pinned by one more column
        assert list(m.inv.pending.rows) == [-1, -1, 4, -2]
        self.assert_columns(m.inv, [0, 2, 4, 1 + m.live.index(21)])
