import math

import numpy as np
import pytest

from oracles import (
    fd_param_grads,
    first_bad_block,
    oracle_contrastive,
    reference_loss_backward,
    similarity_logits,
)
from twotower.errors import DegenerateRowError, ShapeError
from twotower.linalg import l2_normalize_rows, log_softmax_rows
from twotower.loss import LossConfig, contrastive_loss, loss_backward, loss_forward
from twotower.model import ProjectionHead, DualEncoderModel, init_model

# frozen by hand: 2*ln(1 + e^-1) + 2*(0.2)^2
HAND_TOTAL = 0.7065233750364457
HAND_CE = 0.6265233750364457


def identity_heads(dim):
    head = lambda: ProjectionHead(w=np.eye(dim), b=np.zeros(dim))
    return DualEncoderModel(image_head=head(), text_head=head(), shared_dim=dim)


class TestSimilarityLogits:
    """The temperature-scaled cosine logits as ``loss_backward`` forms them.

    ``per_row_min_offdiag`` exposes each row's smallest off-diagonal logit.
    """

    def test_orthonormal_identity(self):
        rows = np.eye(3)
        out, _ = loss_backward(rows, rows, identity_heads(3), LossConfig(lam=0.0))
        np.testing.assert_allclose(out.per_row_min_offdiag, 0.0, atol=1e-12)
        assert out.ce_term == pytest.approx(3 * (math.log(math.e + 2) - 1), abs=1e-12)

    def test_temperature_scaling(self):
        rng = np.random.default_rng(0)
        model = init_model(5, 5, 3, seed=0)
        img, txt = rng.standard_normal((4, 5)), rng.standard_normal((4, 5))
        half, _ = loss_backward(img, txt, model, LossConfig(temperature=0.5))
        one, _ = loss_backward(img, txt, model, LossConfig(temperature=1.0))
        np.testing.assert_allclose(
            half.per_row_min_offdiag, 2 * one.per_row_min_offdiag, atol=1e-12
        )

    def test_hand_case(self):
        img = np.array([[1.0, 0.0], [0.0, 1.0]])
        txt = np.array([[1.0, 0.0], [1.0, 1.0]]) / np.array([[1.0], [math.sqrt(2)]])
        out, _ = loss_backward(img, txt, identity_heads(2), LossConfig())
        assert out.per_row_min_offdiag[0] == pytest.approx(0.70711, abs=5e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss_backward(np.ones((2, 3)), np.ones((3, 3)), identity_heads(3), LossConfig())

    def test_zero_row(self):
        model = DualEncoderModel(
            image_head=ProjectionHead(w=np.eye(2), b=np.zeros(2)),
            text_head=ProjectionHead(w=np.zeros((2, 2)), b=np.zeros(2)),
            shared_dim=2,
        )
        with pytest.raises(DegenerateRowError, match="text row 0"):
            loss_backward(np.ones((1, 2)), np.ones((1, 2)), model, LossConfig())

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            LossConfig(temperature=0.0)


class TestContrastiveLossHandCases:
    def test_single_pair_batch_is_zero(self):
        out = contrastive_loss([[3.7]], LossConfig(lam=1.0, margin=0.2))
        assert out.total == 0.0
        assert out.ce_term == pytest.approx(0.0, abs=1e-15)
        assert out.margin_term == 0.0
        assert out.per_row_min_offdiag[0] == math.inf

    def test_two_pair_hand_value(self):
        out = contrastive_loss(
            [[1.0, 0.0], [0.0, 1.0]], LossConfig(lam=1.0, margin=0.2, symmetric=False)
        )
        assert out.ce_term == pytest.approx(HAND_CE, abs=1e-12)
        assert out.margin_term == pytest.approx(0.08, abs=1e-15)
        assert out.total == pytest.approx(HAND_TOTAL, abs=1e-12)

    def test_hinge_inactive_by_inspection(self):
        out = contrastive_loss([[1.0, 0.5], [0.5, 1.0]], LossConfig(lam=1.0, margin=0.4))
        assert out.margin_term == 0.0
        np.testing.assert_allclose(out.per_row_min_offdiag, [0.5, 0.5])

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            contrastive_loss(np.ones((2, 3)), LossConfig())

    def test_symmetric_on_symmetric_matrix_matches_one_direction(self):
        s = [[1.0, 0.0], [0.0, 1.0]]
        plain = contrastive_loss(s, LossConfig(lam=0.0, symmetric=False))
        sym = contrastive_loss(s, LossConfig(lam=0.0, symmetric=True))
        assert sym.total == pytest.approx(plain.total, abs=1e-14)

    def test_lambda_zero_is_pure_cross_entropy(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(-2, 2, size=(5, 5))
        out = contrastive_loss(s, LossConfig(lam=0.0))
        expected = 0.0
        for i in range(5):
            row = s[i]
            expected += -math.log(math.exp(row[i]) / np.exp(row).sum())
        assert out.total == pytest.approx(expected, abs=1e-10)
        assert out.margin_term == 0.0


class TestLossOracle:
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_matches_brute_force(self, symmetric):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            s = rng.uniform(-3, 3, size=(n, n))
            lam = float(rng.choice([0.0, 0.5, 1.0]))
            margin = float(rng.uniform(-0.5, 1.0))
            out = contrastive_loss(s, LossConfig(lam=lam, margin=margin, symmetric=symmetric))
            ce, mt, total = oracle_contrastive(s.tolist(), lam, margin, symmetric)
            assert out.ce_term == pytest.approx(ce, abs=1e-10)
            assert out.margin_term == pytest.approx(mt, abs=1e-10)
            assert out.total == pytest.approx(total, abs=1e-10)

    def test_terms_sum_and_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            s = rng.uniform(-4, 4, size=(n, n))
            cfg = LossConfig(
                lam=float(rng.choice([0.0, 0.5, 1.0])),
                margin=float(rng.uniform(-1, 1)),
                symmetric=bool(rng.integers(0, 2)),
            )
            out = contrastive_loss(s, cfg)
            assert out.total == pytest.approx(out.ce_term + out.margin_term, abs=1e-12)
            assert out.total >= 0.0
            assert out.ce_term >= 0.0
            assert out.margin_term >= 0.0


class TestGradSim:
    def _fd_grad_sim(self, s, cfg, h=1e-6):
        s = np.asarray(s, dtype=np.float64)
        g = np.zeros_like(s)
        for i in range(s.shape[0]):
            for j in range(s.shape[1]):
                up, down = s.copy(), s.copy()
                up[i, j] += h
                down[i, j] -= h
                g[i, j] = (
                    contrastive_loss(up, cfg).total - contrastive_loss(down, cfg).total
                ) / (2 * h)
        return g

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("mode", ["literal", "hard_negative"])
    def test_grad_sim_matches_finite_differences(self, symmetric, mode):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            s = rng.uniform(-2, 2, size=(n, n))
            cfg = LossConfig(
                lam=float(rng.choice([0.5, 1.0])),
                margin=float(rng.uniform(-0.3, 0.8)),
                margin_mode=mode,
                symmetric=symmetric,
            )
            out = contrastive_loss(s, cfg)
            fd = self._fd_grad_sim(s, cfg)
            np.testing.assert_allclose(out.grad_sim, fd, atol=2e-8)

    @pytest.mark.parametrize("mode", ["literal", "hard_negative"])
    def test_hinge_gradient_bit_equal_to_per_row_loop(self, mode):
        # reference: the lam=0 gradient plus one scalar hinge update per row
        rng = np.random.default_rng(12)
        active_rows = 0
        for _ in range(40):
            n = int(rng.integers(2, 12))
            s = rng.uniform(-1.5, 1.5, size=(n, n))
            cfg = LossConfig(
                lam=float(rng.uniform(0.1, 2.0)),
                margin=float(rng.uniform(-0.5, 1.0)),
                temperature=float(rng.choice([0.5, 1.0, 2.0])),
                margin_mode=mode,
            )
            out = contrastive_loss(s, cfg)
            ref = contrastive_loss(s, LossConfig(lam=0.0, temperature=cfg.temperature)).grad_sim
            off = s.copy()
            np.fill_diagonal(off, np.inf if mode == "literal" else -np.inf)
            for i in range(n):
                if mode == "literal":
                    j = int(np.argmin(off[i]))
                    hinge = cfg.margin - off[i, j]
                    if hinge > 0:
                        ref[i, j] -= 2.0 * cfg.lam * hinge
                else:
                    j = int(np.argmax(off[i]))
                    hinge = off[i, j] - (s[i, i] * cfg.temperature - cfg.margin)
                    if hinge > 0:
                        ref[i, j] += 2.0 * cfg.lam * hinge
                        ref[i, i] -= 2.0 * cfg.lam * hinge * cfg.temperature
                active_rows += hinge > 0
            np.testing.assert_array_equal(out.grad_sim, ref)
        assert active_rows > 50

    def test_lambda_zero_grad_is_softmax_minus_identity(self):
        rng = np.random.default_rng(4)
        s = rng.uniform(-2, 2, size=(4, 4))
        out = contrastive_loss(s, LossConfig(lam=0.0))
        np.testing.assert_allclose(
            out.grad_sim, np.exp(log_softmax_rows(s)) - np.eye(4), atol=1e-12
        )

    def test_min_tie_broken_to_lowest_column(self):
        # both off-diagonal entries of row 0 tie at the min; gradient must
        # land on column 1 (the lowest index), not column 2
        s = np.array([[1.0, -0.5, -0.5], [0.0, 1.0, 0.3], [0.3, 0.0, 1.0]])
        out = contrastive_loss(s, LossConfig(lam=1.0, margin=0.2))
        hinge = 0.2 - (-0.5)
        ce_grad = np.exp(log_softmax_rows(s)) - np.eye(3)
        assert out.grad_sim[0, 1] == pytest.approx(ce_grad[0, 1] - 2 * hinge, abs=1e-12)
        assert out.grad_sim[0, 2] == pytest.approx(ce_grad[0, 2], abs=1e-12)

    def test_hinge_kink_subgradient_is_zero(self):
        # margin exactly equals the row min: no penalty, no gradient
        s = np.array([[1.0, 0.2], [0.2, 1.0]])
        out = contrastive_loss(s, LossConfig(lam=1.0, margin=0.2))
        assert out.margin_term == 0.0
        np.testing.assert_allclose(
            out.grad_sim, np.exp(log_softmax_rows(s)) - np.eye(2), atol=1e-15
        )


def random_model(rng, img_dim, txt_dim, shared_dim):
    return init_model(img_dim, txt_dim, shared_dim, seed=int(rng.integers(0, 2**31)))


class TestLossBackward:
    def test_value_consistent_with_forward_pieces(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 6, 5, 4)
        img, txt = rng.standard_normal((3, 6)), rng.standard_normal((3, 5))
        cfg = LossConfig(lam=1.0, margin=0.2, temperature=0.7)
        out, _ = loss_backward(img, txt, model, cfg)
        from twotower.model import project

        s = similarity_logits(project(model.image_head, img), project(model.text_head, txt), 0.7)
        ref = contrastive_loss(s, cfg)
        assert out.total == pytest.approx(ref.total, abs=1e-12)

    @pytest.mark.parametrize("mode", ["literal", "hard_negative"])
    def test_param_grads_match_finite_differences(self, mode):
        rng = np.random.default_rng(6)
        for _ in range(8):
            model = random_model(rng, 5, 4, 3)
            n = int(rng.choice([2, 4]))
            img, txt = rng.standard_normal((n, 5)), rng.standard_normal((n, 4))
            cfg = LossConfig(
                lam=float(rng.choice([0.5, 1.0])),
                margin=float(rng.uniform(-0.2, 0.6)),
                temperature=float(rng.choice([0.5, 1.0])),
                margin_mode=mode,
            )
            _, grads = loss_backward(img, txt, model, cfg)
            fd = fd_param_grads(img, txt, model, cfg)
            diff = np.abs(grads - fd)
            bad = (diff > 1e-7) & (diff / np.maximum(np.abs(fd), 1e-7) >= 1e-4)
            assert not bad.any(), f"{first_bad_block(model, bad)} gradient off"

    def test_single_pair_margin_grads_zero(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, 4, 4, 3)
        img, txt = rng.standard_normal((1, 4)), rng.standard_normal((1, 4))
        big_margin = LossConfig(lam=10.0, margin=0.9)
        out, grads = loss_backward(img, txt, model, big_margin)
        assert out.margin_term == 0.0
        # with N=1 the loss is constant zero, so every gradient vanishes
        np.testing.assert_allclose(grads, 0.0, atol=1e-15)

    def test_batch_size_mismatch(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 4, 4, 3)
        with pytest.raises(ShapeError):
            loss_backward(
                rng.standard_normal((2, 4)), rng.standard_normal((3, 4)), model, LossConfig()
            )

    def test_degenerate_projection_detected(self):
        model = DualEncoderModel(
            image_head=ProjectionHead(w=np.zeros((3, 2)), b=np.zeros(2)),
            text_head=ProjectionHead(w=np.eye(2), b=np.zeros(2)),
            shared_dim=2,
        )
        with pytest.raises(DegenerateRowError, match="image row 0"):
            loss_backward(np.ones((2, 3)), np.ones((2, 2)), model, LossConfig())


class TestLossProperties:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, 5, 4, 3)
        n = 6
        img, txt = rng.standard_normal((n, 5)), rng.standard_normal((n, 4))
        cfg = LossConfig(lam=1.0, margin=0.3)
        base, _ = loss_backward(img, txt, model, cfg)
        for _ in range(5):
            perm = rng.permutation(n)
            out, _ = loss_backward(img[perm], txt[perm], model, cfg)
            assert out.total == pytest.approx(base.total, abs=1e-12)

    def test_query_scale_invariance_of_ranking(self):
        # cosine is invariant to positive scaling, so similarities (and any
        # ranking built on them) do not move; the bias-free heads of a fresh
        # model carry a feature scale straight through to the projection
        rng = np.random.default_rng(10)
        model = init_model(5, 5, 3, seed=10)
        img, txt = rng.standard_normal((4, 5)), rng.standard_normal((4, 5))
        base, _ = loss_backward(img, txt, model, LossConfig())
        scaled, _ = loss_backward(img, txt * 3.7, model, LossConfig())
        np.testing.assert_allclose(base.per_row_min_offdiag, scaled.per_row_min_offdiag, atol=1e-9)
        assert scaled.total == pytest.approx(base.total, abs=1e-9)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(lam=-0.1)
        with pytest.raises(ValueError):
            LossConfig(temperature=0.0)
        with pytest.raises(ValueError):
            LossConfig(margin_mode="other")


class TestHardNegativeMode:
    def test_value_formula(self):
        s = np.array([[1.0, 0.7], [0.1, 0.4]])
        tau = 0.5
        cfg = LossConfig(lam=1.0, margin=0.2, temperature=tau, margin_mode="hard_negative")
        out = contrastive_loss(s, cfg)
        expected = 0.0
        for i in range(2):
            hardest = max(s[i][j] for j in range(2) if j != i)
            gap = hardest - (s[i][i] * tau - 0.2)
            if gap > 0:
                expected += gap * gap
        assert out.margin_term == pytest.approx(expected, abs=1e-12)

    def test_single_pair_is_zero(self):
        out = contrastive_loss([[2.0]], LossConfig(lam=5.0, margin=0.5, margin_mode="hard_negative"))
        assert out.total == 0.0


class TestFusedStepMatchesReference:
    """The fused step gives, bit for bit, what the helper-by-helper reference gives."""

    FIELDS = ("total", "ce_term", "margin_term", "grad_sim", "per_row_min_offdiag")

    # 0.5 scales exactly; 0.07 does not, so a division turned into a
    # multiplication by the reciprocal shows
    @pytest.mark.parametrize("temperature", [1.0, 0.5, 0.07])
    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("mode", ["literal", "hard_negative"])
    def test_loss_and_gradient_bit_equal(self, mode, symmetric, temperature):
        rng = np.random.default_rng(31)
        model = init_model(64, 48, 32, seed=32)  # the shapes of the default training step
        cfg = LossConfig(margin_mode=mode, symmetric=symmetric, temperature=temperature)
        active = 0
        for n in (64, 64, 64, 17, 2, 1):
            img = rng.standard_normal((n, 64)) * rng.uniform(0.5, 2.0)
            txt = rng.standard_normal((n, 48))
            img_before, txt_before = img.copy(), txt.copy()
            out, grads = loss_backward(img, txt, model, cfg)
            terms, ref_grads = reference_loss_backward(img, txt, model, cfg)
            for field in self.FIELDS:
                assert np.array_equal(getattr(out, field), terms[field]), field
            assert np.array_equal(grads, ref_grads)
            forward = loss_forward(img, txt, model, cfg)
            for field in self.FIELDS:
                assert np.array_equal(getattr(forward, field), terms[field]), field
            # the caller's features are read, never written
            assert np.array_equal(img, img_before) and np.array_equal(txt, txt_before)
            active += out.margin_term > 0
            model.params -= 1e-2 * grads  # the next batch meets other parameters
        assert active >= 3  # the hinge branch ran, not only the cross-entropy

    def test_contrastive_loss_leaves_the_callers_logits_alone(self):
        rng = np.random.default_rng(33)
        for mode in ("literal", "hard_negative"):
            s = rng.uniform(-1, 1, size=(5, 5))
            before = s.copy()
            out = contrastive_loss(s, LossConfig(margin_mode=mode, symmetric=True))
            assert np.array_equal(s, before)
            assert out.per_row_min_offdiag.tolist() == [
                min(s[i, j] for j in range(5) if j != i) for i in range(5)
            ]
        transposed = rng.uniform(-1, 1, size=(4, 4)).T  # not C-contiguous
        expected = contrastive_loss(np.ascontiguousarray(transposed), LossConfig())
        out = contrastive_loss(transposed, LossConfig())
        assert np.array_equal(out.grad_sim, expected.grad_sim)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_public_entry_points_reject_non_finite_input(self, bad):
        rng = np.random.default_rng(34)
        model = init_model(4, 3, 2, seed=35)
        img, txt = rng.standard_normal((3, 4)), rng.standard_normal((3, 3))
        img[1, 2] = bad
        with pytest.raises(ValueError, match="^image features contains non-finite entries$"):
            loss_backward(img, txt, model, LossConfig())
        img[1, 2] = 0.0
        txt[2, 0] = bad
        with pytest.raises(ValueError, match="^text features contains non-finite entries$"):
            loss_backward(img, txt, model, LossConfig())
        s = rng.uniform(-1, 1, size=(3, 3))
        s[0, 1] = bad
        with pytest.raises(ValueError, match="^similarity logits contains non-finite entries$"):
            contrastive_loss(s, LossConfig())
        with pytest.raises(ValueError, match="non-finite"):
            l2_normalize_rows(s, "m", None)

    def test_overflowing_projection_raises_without_warnings(self, recwarn):
        model = init_model(4, 3, 2, seed=36)
        img = np.full((2, 4), 1e300)
        message = "^image row 0 projects to a vector whose norm overflows$"
        with pytest.raises(DegenerateRowError, match=message) as exc:
            loss_backward(img, np.ones((2, 3)), model, LossConfig())
        assert exc.value.row == 0
        assert not recwarn.list
