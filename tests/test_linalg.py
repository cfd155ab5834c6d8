import numpy as np
import pytest

from twotower.errors import DegenerateRowError
from twotower.linalg import as_matrix, log_softmax_rows, row_norms, unit_rows


def softmax_rows(m):
    return np.exp(log_softmax_rows(m))


def cosine_similarity_matrix(a, b):
    """All-pairs cosines as the package forms them: unit rows times unit rows."""
    return unit_rows(as_matrix(a), "a", None) @ unit_rows(as_matrix(b), "b", None).T


class TestAsMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[np.inf, 0.0]])


class TestL2NormalizeRows:
    def test_hand_case(self):
        out = unit_rows(as_matrix([[3.0, 4.0]]), "m", None)
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_already_unit(self):
        out = unit_rows(as_matrix([[1.0, 0.0]]), "m", None)
        np.testing.assert_array_equal(out, [[1.0, 0.0]])

    def test_zero_row_flagged(self):
        with pytest.raises(DegenerateRowError, match="^m 'b' projects to a zero vector$") as exc:
            unit_rows(as_matrix([[1.0, 1.0], [0.0, 0.0]]), "m", ["a", "b"])
        assert exc.value.row == 1 and exc.value.row_id == "b"

    def test_norms_are_unit(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((50, 7)) * 10 ** rng.uniform(-3, 3, size=(50, 1))
        out = unit_rows(as_matrix(m), "m", None)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(out * row_norms(m)[:, None], m, rtol=1e-12)

    def test_tiny_norm_is_degenerate(self):
        with pytest.raises(DegenerateRowError, match="m row 0") as exc:
            unit_rows(as_matrix([[1e-13, 0.0]]), "m", None)
        assert exc.value.row == 0 and exc.value.row_id is None


class TestSoftmaxRows:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows([[0.0, 0.0]]), [[0.5, 0.5]], atol=1e-15)

    def test_hand_case(self):
        out = softmax_rows([[1.0, 0.0]])
        np.testing.assert_allclose(out, [[0.73106, 0.26894]], atol=5e-6)

    def test_large_logits_stable(self):
        out = softmax_rows([[1000.0, 0.0]])
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(-50, 50, size=(40, 9))
        out = softmax_rows(m)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert (out > 0).all() and (out <= 1).all()

    def test_log_softmax_consistent(self):
        rng = np.random.default_rng(4)
        m = rng.uniform(-30, 30, size=(10, 6))
        e = np.exp(m - m.max(axis=1, keepdims=True))
        np.testing.assert_allclose(softmax_rows(m), e / e.sum(axis=1, keepdims=True), atol=1e-12)


class TestCosineSimilarityMatrix:
    def test_identical_vectors(self):
        assert cosine_similarity_matrix([[1.0, 0.0]], [[1.0, 0.0]])[0, 0] == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity_matrix([[1.0, 0.0]], [[0.0, 1.0]])[0, 0] == pytest.approx(0.0)

    def test_hand_case(self):
        out = cosine_similarity_matrix([[1.0, 1.0]], [[1.0, 0.0]])
        assert out[0, 0] == pytest.approx(0.70711, abs=5e-6)

    def test_zero_row_error_names_row(self):
        with pytest.raises(DegenerateRowError, match="a row 1") as exc:
            cosine_similarity_matrix([[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]])
        assert exc.value.row == 1 and exc.value.row_id is None

    def test_unit_diagonal(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((12, 5))
        np.testing.assert_allclose(np.diag(cosine_similarity_matrix(a, a)), 1.0, atol=1e-9)

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((8, 4))
        scales = 10 ** rng.uniform(-6, 6, size=(6, 1))
        base = cosine_similarity_matrix(a, b)
        scaled = cosine_similarity_matrix(a * scales, b)
        np.testing.assert_allclose(scaled, base, atol=1e-9)

    def test_entries_bounded(self):
        rng = np.random.default_rng(7)
        out = cosine_similarity_matrix(rng.standard_normal((20, 6)), rng.standard_normal((15, 6)))
        assert out.max() <= 1 + 1e-9 and out.min() >= -1 - 1e-9

