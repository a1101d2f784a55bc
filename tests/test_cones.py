import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constructal import hierarchy as hm
from constructal.cones import (
    Box,
    kkt_residual,
    moreau_decompose,
    tangent_project,
)
from constructal.errors import DomainError


@pytest.fixture()
def unit_square():
    return Box(lo=np.zeros(2), hi=np.ones(2))


def random_box_points(box, rng, count, face_fraction=0.5):
    """Random points, a share of them snapped onto random faces."""
    X = box.lo + rng.random((count, box.dim)) * (box.hi - box.lo)
    for i in range(count):
        if rng.random() < face_fraction:
            j = rng.integers(box.dim)
            X[i, j] = box.lo[j] if rng.random() < 0.5 else box.hi[j]
    return X


class TestTangentProject:
    def test_interior_passthrough(self, unit_square):
        v = np.array([-3.0, 7.0])
        out = tangent_project(unit_square, np.array([0.5, 0.5]), v)
        assert out == pytest.approx(v)

    def test_lower_face_clips_outward(self, unit_square):
        out = tangent_project(unit_square, np.array([0.0, 0.5]), np.array([-1.0, 2.0]))
        assert out == pytest.approx([0.0, 2.0])

    def test_corner_clips_componentwise(self, unit_square):
        out = tangent_project(unit_square, np.array([1.0, 1.0]), np.array([3.0, -1.0]))
        assert out == pytest.approx([0.0, -1.0])

    def test_rejects_outside_point(self, unit_square):
        with pytest.raises(DomainError):
            tangent_project(unit_square, np.array([2.0, 0.5]), np.array([1.0, 1.0]))

    @settings(max_examples=50, deadline=None)
    @given(
        x=st.tuples(st.floats(0, 1), st.floats(0, 1)),
        v=st.tuples(
            st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False)
        ),
    )
    def test_idempotent(self, x, v):
        square = Box(lo=np.zeros(2), hi=np.ones(2))
        once = tangent_project(square, np.array(x), np.array(v))
        twice = tangent_project(square, np.array(x), once)
        assert np.array_equal(once, twice)


class TestMoreau:
    def test_interior_normal_is_zero(self, unit_square):
        dec = moreau_decompose(unit_square, np.array([0.3, 0.4]), np.array([5.0, -2.0]))
        assert dec.normal == pytest.approx([0.0, 0.0])

    def test_face_split(self, unit_square):
        dec = moreau_decompose(unit_square, np.array([0.0, 0.5]), np.array([-1.0, 2.0]))
        assert dec.tangent == pytest.approx([0.0, 2.0])
        assert dec.normal == pytest.approx([-1.0, 0.0])
        assert float(dec.tangent @ dec.normal) == 0.0

    def test_thousand_random_decompositions(self, box):
        rng = np.random.default_rng(17)
        X = random_box_points(box, rng, 1000)
        V = rng.normal(size=(1000, box.dim)) * 10.0
        at_lo = lambda x: box.active_lower(x)
        at_hi = lambda x: box.active_upper(x)
        for x, v in zip(X, V):
            dec = moreau_decompose(box, x, v)
            scale = max(1.0, float(np.linalg.norm(v)))
            # reconstruction
            assert np.max(np.abs(dec.tangent + dec.normal - v)) <= 1e-12 * scale
            # orthogonality
            assert abs(float(dec.tangent @ dec.normal)) <= 1e-12 * scale**2
            # Pythagoras
            lhs = float(v @ v)
            rhs = float(dec.tangent @ dec.tangent) + float(dec.normal @ dec.normal)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
            # cone membership, componentwise
            lo, hi = at_lo(x), at_hi(x)
            for j in range(box.dim):
                if lo[j]:
                    assert dec.tangent[j] >= 0.0 or dec.tangent[j] == pytest.approx(0.0)
                    assert dec.normal[j] <= 0.0
                elif hi[j]:
                    assert dec.tangent[j] <= 0.0 or dec.tangent[j] == pytest.approx(0.0)
                    assert dec.normal[j] >= 0.0
                else:
                    assert dec.normal[j] == 0.0


class TestKKTResidual:
    def test_zero_gradient(self, unit_square):
        assert kkt_residual(unit_square, np.array([0.5, 0.5]), np.zeros(2)) == 0.0

    def test_interior_squared_norm(self, unit_square):
        assert kkt_residual(unit_square, np.array([0.5, 0.5]), np.array([3.0, -4.0])) == pytest.approx(25.0)

    def test_outward_gradient_absorbed_at_face(self, unit_square):
        # gradient pushing out through the lower face is normal-cone content
        assert kkt_residual(unit_square, np.array([0.0, 0.5]), np.array([5.0, 0.0])) == 0.0

    def test_never_exceeds_gradient_norm(self, box):
        rng = np.random.default_rng(23)
        X = random_box_points(box, rng, 200)
        for x in X:
            g = rng.normal(size=box.dim)
            res = kkt_residual(box, x, g)
            assert res <= float(g @ g) + 1e-12
            if box.interior_point(x):
                assert res == pytest.approx(float(g @ g), rel=1e-12)

    @pytest.mark.parametrize("d", [1, 5, 15, 63])
    def test_stack_gives_each_row_its_own_value(self, d):
        rng = np.random.default_rng(d)
        box = Box(lo=rng.uniform(0.0, 1.0, d), hi=rng.uniform(2.0, 50.0, d))
        X = random_box_points(box, rng, 60).reshape(3, 20, d)
        G = rng.normal(size=X.shape) * 10.0 ** rng.uniform(-6, 6, X.shape)
        res = kkt_residual(box, X, G)
        assert res.shape == (3, 20)
        rows = list(zip(X.reshape(-1, d), G.reshape(-1, d)))
        assert np.array_equal(res.ravel(), [kkt_residual(box, x, g) for x, g in rows])
        T = tangent_project(box, X, G).reshape(-1, d)
        assert np.array_equal(T, [tangent_project(box, x, g) for x, g in rows])

    def test_stack_with_a_row_outside_the_box_raises(self, box):
        X = random_box_points(box, np.random.default_rng(31), 20)
        X[13, 2] = box.hi[2] + 1e-6
        with pytest.raises(DomainError, match=r"outside the box"):
            kkt_residual(box, X, np.ones_like(X))
        with pytest.raises(DomainError, match=r"outside the box"):
            tangent_project(box, X[None], np.ones_like(X[None]))

    def test_stationary_at_optimum(self, costs, cfg, box, x_star):
        g = hm.gradient_vec(costs, cfg, x_star.vector(), "decoupled")
        assert kkt_residual(box, x_star.vector(), g) <= 1e-12

    def test_positive_at_perturbed_points(self, costs, cfg, box, x_star):
        rng = np.random.default_rng(29)
        opt = x_star.vector()
        for _ in range(100):
            vec = opt + rng.uniform(-0.05, 0.05, 5) * np.maximum(1.0, np.abs(opt))
            vec = np.clip(vec, box.lo + 1e-3, box.hi - 1e-3)
            if np.allclose(vec, opt):
                continue
            g = hm.gradient_vec(costs, cfg, vec, "decoupled")
            assert kkt_residual(box, vec, g) > 0.0

