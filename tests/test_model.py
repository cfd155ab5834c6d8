import math
import struct

import numpy as np
import pytest

from allocation import raises_small
from twotower.errors import (
    BadMagicError,
    DataFormatError,
    FormatVersionError,
    ShapeError,
    TruncatedFileError,
)
from twotower.model import (
    DualEncoderModel,
    ProjectionHead,
    checkpoint_bytes,
    checkpoint_from_bytes,
    init_model,
    load_checkpoint,
    model_fingerprint,
    project,
    save_checkpoint,
)


class TestInitModel:
    def test_shapes(self):
        m = init_model(64, 48, 32, seed=0)
        assert m.image_head.w.shape == (64, 32)
        assert m.text_head.w.shape == (48, 32)
        assert m.shared_dim == 32

    def test_bias_zero(self):
        m = init_model(8, 6, 4, seed=0)
        assert not m.image_head.b.any()
        assert not m.text_head.b.any()

    def test_deterministic(self):
        a = init_model(8, 6, 4, seed=123)
        b = init_model(8, 6, 4, seed=123)
        np.testing.assert_array_equal(a.image_head.w, b.image_head.w)
        np.testing.assert_array_equal(a.text_head.w, b.text_head.w)

    def test_glorot_bounds(self):
        m = init_model(100, 80, 20, seed=5)
        lim_img = math.sqrt(6.0 / (100 + 20))
        lim_txt = math.sqrt(6.0 / (80 + 20))
        assert np.abs(m.image_head.w).max() <= lim_img
        assert np.abs(m.text_head.w).max() <= lim_txt

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            init_model(0, 6, 4, seed=0)


class TestProject:
    def test_identity_head(self):
        head = ProjectionHead(w=np.eye(3), b=np.zeros(3))
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(project(head, x), x)

    def test_zero_input_gives_bias(self):
        head = ProjectionHead(w=np.ones((3, 2)), b=np.array([5.0, -1.0]))
        out = project(head, np.zeros((4, 3)))
        np.testing.assert_array_equal(out, np.tile([5.0, -1.0], (4, 1)))

    def test_hand_case(self):
        head = ProjectionHead(w=[[2.0]], b=[1.0])
        np.testing.assert_array_equal(project(head, [[3.0]]), [[7.0]])

    def test_dim_mismatch(self):
        head = ProjectionHead(w=np.eye(3), b=np.zeros(3))
        with pytest.raises(ShapeError):
            project(head, np.zeros((2, 4)))

    def test_linearity(self):
        rng = np.random.default_rng(8)
        head = ProjectionHead(w=rng.standard_normal((5, 3)), b=rng.standard_normal(3))
        x, y = rng.standard_normal((4, 5)), rng.standard_normal((4, 5))
        alpha, beta = 1.7, -0.4
        lhs = project(head, alpha * x + beta * y)
        rhs = alpha * project(head, x) + beta * project(head, y) - (alpha + beta - 1) * head.b
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def make_model(seed=0):
    return init_model(6, 5, 4, seed=seed, meta={"note": "unit-test", "n": 3})


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        m = make_model()
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        back = load_checkpoint(p)
        np.testing.assert_array_equal(back.image_head.w, m.image_head.w)
        np.testing.assert_array_equal(back.text_head.b, m.text_head.b)
        assert back.meta == m.meta
        assert back.shared_dim == m.shared_dim

    def test_roundtrip_projection_identical(self, tmp_path):
        m = make_model(seed=4)
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        back = load_checkpoint(p)
        x = np.random.default_rng(0).standard_normal((3, 6))
        np.testing.assert_array_equal(project(m.image_head, x), project(back.image_head, x))

    def test_second_save_byte_identical(self, tmp_path):
        m = make_model(seed=9)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(m, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_declares_dims(self, tmp_path):
        m = init_model(64, 48, 32, seed=0)
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        magic, version, img, txt, shared = struct.unpack("<4sIIII", p.read_bytes()[:20])
        assert (magic, version, img, txt, shared) == (b"AZCK", 1, 64, 48, 32)

    def test_truncated(self, tmp_path):
        m = make_model()
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        p.write_bytes(p.read_bytes()[:50])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(p)

    def test_bad_magic(self, tmp_path):
        m = make_model()
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        data = bytearray(p.read_bytes())
        data[:4] = b"NOPE"
        p.write_bytes(bytes(data))
        with pytest.raises(BadMagicError):
            load_checkpoint(p)

    def test_version_mismatch(self, tmp_path):
        m = make_model()
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        data = bytearray(p.read_bytes())
        data[4:8] = struct.pack("<I", 2)
        p.write_bytes(bytes(data))
        with pytest.raises(FormatVersionError):
            load_checkpoint(p)

    def test_trailing_data_rejected(self, tmp_path):
        m = make_model()
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(DataFormatError, match="trailing"):
            load_checkpoint(p)

    def test_nonpositive_dims_rejected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(make_model(), p)
        data = bytearray(p.read_bytes())
        data[16:20] = struct.pack("<I", 0)  # shared dim
        p.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="non-positive dims"):
            load_checkpoint(p)

    def test_huge_dims_raise_without_allocating(self, tmp_path):
        # 32-bit dims whose block size overflows int64 must not wrap negative
        p = tmp_path / "m.ckpt"
        save_checkpoint(make_model(), p)
        data = bytearray(p.read_bytes())
        data[8:20] = struct.pack("<III", 2**32 - 1, 2**32 - 1, 2**32 - 1)
        p.write_bytes(bytes(data))
        err = raises_small(TruncatedFileError, load_checkpoint, p, match="image weights")
        assert f"wanted {(2**32 - 1) ** 2 * 8} bytes" in str(err)

    @pytest.mark.parametrize("meta", [b'{"a":"\xff"}', b'{"a":1'], ids=["utf8", "json"])
    def test_bad_meta_block_rejected(self, tmp_path, meta):
        m = make_model()
        m.meta = {"a": 1}
        good = checkpoint_bytes(m)
        p = tmp_path / "m.ckpt"
        p.write_bytes(good[: -len(b'{"a":1}') - 4] + struct.pack("<I", len(meta)) + meta)
        with pytest.raises(DataFormatError, match="checkpoint meta block"):
            load_checkpoint(p)


class TestFingerprint:
    def test_stable(self):
        assert model_fingerprint(make_model()) == model_fingerprint(make_model())

    def test_sensitive_to_parameters(self):
        a, b = make_model(), make_model()
        b.image_head.w[0, 0] += 1e-9
        assert model_fingerprint(a) != model_fingerprint(b)

    def test_sensitive_to_meta(self):
        a, b = make_model(), make_model()
        b.meta["note"] = "changed"
        assert model_fingerprint(a) != model_fingerprint(b)

    def test_matches_file_bytes(self, tmp_path):
        import hashlib

        m = make_model()
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        assert model_fingerprint(m) == hashlib.sha256(p.read_bytes()).hexdigest()
        assert len(checkpoint_bytes(m)) == p.stat().st_size


class TestParameterBuffer:
    def test_blocks_are_views_in_checkpoint_order(self):
        m = init_model(6, 5, 4, seed=0)
        blocks = m.blocks(m.params)
        assert list(blocks) == ["image_w", "image_b", "text_w", "text_b"]
        assert m.params.shape == (6 * 4 + 4 + 5 * 4 + 4,)
        heads = (m.image_head.w, m.image_head.b, m.text_head.w, m.text_head.b)
        for block, head_array in zip(blocks.values(), heads):
            assert block.shape == head_array.shape
            assert np.shares_memory(block, m.params) and np.shares_memory(head_array, m.params)
            np.testing.assert_array_equal(block, head_array)

    def test_construction_copies_caller_arrays(self):
        w, b = np.ones((3, 2)), np.zeros(2)
        m = DualEncoderModel(ProjectionHead(w, b), ProjectionHead(np.eye(2), b), 2)
        w[0, 0] = 5.0
        b[1] = 6.0
        assert m.params[0] == 1.0 and not m.image_head.b.any() and not m.text_head.b.any()
        m.image_head.w[0, 1] = 7.0
        assert w[0, 1] == 1.0

    def test_one_head_object_gives_two_blocks(self):
        head = ProjectionHead(np.eye(2), np.zeros(2))
        m = DualEncoderModel(head, head, 2)
        m.image_head.w[0, 0] = 9.0
        assert m.text_head.w[0, 0] == 1.0 and head.w[0, 0] == 1.0
        np.testing.assert_array_equal(m.blocks(m.params)["text_w"], np.eye(2))

    @pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
    def test_head_writes_reach_params_and_checkpoint(self, loaded):
        m = make_model()
        if loaded:
            m = checkpoint_from_bytes(checkpoint_bytes(m))
        before_bytes, before_fp = checkpoint_bytes(m), model_fingerprint(m)
        m.image_head.w[0, 0] += 1.0
        assert m.params[0] == m.image_head.w[0, 0]
        assert checkpoint_bytes(m) != before_bytes
        assert model_fingerprint(m) != before_fp

    def test_checkpoint_body_is_params_bytes(self):
        m = make_model(seed=3)
        body = checkpoint_bytes(m)[20:]
        params = m.params.astype("<f8").tobytes()
        assert body[: len(params)] == params
        (meta_len,) = struct.unpack("<I", body[len(params) : len(params) + 4])
        assert len(body) == len(params) + 4 + meta_len


class TestModelValidation:
    def test_head_output_must_match_shared_dim(self):
        with pytest.raises(ShapeError):
            DualEncoderModel(
                image_head=ProjectionHead(w=np.zeros((4, 3)), b=np.zeros(3)),
                text_head=ProjectionHead(w=np.zeros((4, 2)), b=np.zeros(2)),
                shared_dim=3,
            )

    def test_bias_shape_checked(self):
        with pytest.raises(ShapeError):
            ProjectionHead(w=np.zeros((4, 3)), b=np.zeros(4))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ProjectionHead(w=np.full((2, 2), np.nan), b=np.zeros(2))
