"""Model parameter container, backbone, variance heads, and their
hand-written gradients against finite differences."""

import os
import pickle
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from probfas import losses, model, training
from conftest import fd_gradient, rel_err, with_grads, FD_TOL


class TestInit:
    def test_shapes(self):
        p = model.init_params(5, {"spoof_type": 3, "lighting": 4}, B=6, hidden=(8, 7), seed=0)
        assert [W.shape for W, _ in p.layers] == [(8, 5), (7, 8), (6, 7)]
        assert [b.shape for _, b in p.layers] == [(8,), (7,), (6,)]
        assert p.w_lq.shape == (6, 6) and p.b_lq.shape == (6,)
        assert p.w_dq.shape == (6,) and p.b_dq.shape == ()
        assert p.omega_c.shape == (2, 6)
        assert p.omega_s["spoof_type"].shape == (3, 6)
        assert p.omega_s["lighting"].shape == (4, 6)
        assert p.D == 5 and p.B == 6

    def test_variance_heads_start_at_one(self):
        p = model.init_params(4, {"spoof_type": 2}, B=5, hidden=(6,), seed=1)
        mu = np.random.default_rng(0).standard_normal((7, 5))
        assert np.all(model.lq_variance(p, mu) == 1.0)
        assert np.all(model.dq_variance(p, mu) == 1.0)

    def test_biases_start_at_zero(self):
        p = model.init_params(4, {"spoof_type": 2}, B=5, hidden=(6,), seed=1)
        for _, b in p.layers:
            assert np.all(b == 0.0)

    def test_deterministic(self):
        a = model.init_params(4, {"spoof_type": 2}, B=5, hidden=(6,), seed=3)
        b = model.init_params(4, {"spoof_type": 2}, B=5, hidden=(6,), seed=3)
        assert np.array_equal(a.flat, b.flat)


class TestFlatten:
    def test_round_trip(self, tiny_params):
        vec = tiny_params.flat.copy()
        rebuilt = tiny_params.with_flat(vec)
        assert np.array_equal(rebuilt.flat, tiny_params.flat)
        assert rebuilt.flat is vec
        for (name, a), (_, b) in zip(rebuilt.named_tensors(), tiny_params.named_tensors()):
            assert np.array_equal(a, b), name

    def test_named_tensor_ordering_is_stable(self, tiny_params):
        names1 = [n for n, _ in tiny_params.named_tensors()]
        names2 = [n for n, _ in tiny_params.copy().named_tensors()]
        assert names1 == names2

    def test_flat_is_named_tensors_in_order(self, tiny_params):
        expected = np.concatenate([t.ravel() for _, t in tiny_params.named_tensors()])
        assert np.array_equal(tiny_params.flat, expected)
        assert tiny_params.flat.flags.c_contiguous and tiny_params.flat.dtype == np.float64

    def test_size_mismatch_rejected(self, tiny_params):
        with pytest.raises(ValueError):
            tiny_params.with_flat(tiny_params.flat[:-1].copy())
        with pytest.raises(ValueError):
            tiny_params.with_flat(np.zeros(tiny_params.flat.size + 1))

    @pytest.mark.parametrize("make", [
        lambda p: p,
        lambda p: p.copy(),
        lambda p: p.zeros_like(),
        lambda p: p.with_flat(p.flat.copy()),
    ], ids=["init", "copy", "zeros_like", "with_flat"])
    def test_every_tensor_is_a_view_of_flat(self, tiny_params, make):
        p = make(tiny_params)
        for name, t in p.named_tensors():
            assert np.shares_memory(t, p.flat), name

    def test_a_pickled_stack_loads_as_views_of_flat(self, tiny_params):
        # a forked child sends its trained stacks back pickled
        stack = model.ModelParams.stack([tiny_params, tiny_params.zeros_like()])
        loaded = pickle.loads(pickle.dumps(stack))
        assert loaded.flat.tobytes() == stack.flat.tobytes() and loaded.flat.shape == stack.flat.shape
        assert [(n, t.shape) for n, t in loaded.named_tensors()] == [(n, t.shape) for n, t in stack.named_tensors()]
        for name, t in loaded.named_tensors():
            assert np.shares_memory(t, loaded.flat), name
        assert loaded.replica(0).flat.tobytes() == tiny_params.flat.tobytes()

    def test_copy_and_zeros_like_share_no_memory_with_source(self, tiny_params):
        for other in (tiny_params.copy(), tiny_params.zeros_like()):
            assert not np.shares_memory(other.flat, tiny_params.flat)
            for (_, a), (_, b) in zip(other.named_tensors(), tiny_params.named_tensors()):
                assert not np.shares_memory(a, b)
        assert not np.any(tiny_params.zeros_like().flat)

    def test_writes_through_a_tensor_reach_flat(self, tiny_params):
        p = tiny_params.copy()
        p.omega_c[1, 2] = 7.5
        p.b_dq += 1.25
        names = [n for n, _ in p.named_tensors()]
        offset = sum(t.size for n, t in p.named_tensors()[: names.index("omega_c")])
        assert p.flat[offset + 1 * p.B + 2] == 7.5
        assert p.flat[offset - 1] == 1.25  # b_dq is stored just before omega_c
        assert tiny_params.omega_c[1, 2] != 7.5

    def test_checkpoint_body_is_flat_and_loads_as_views(self, tiny_params, tmp_path):
        path = tmp_path / "p.ckpt"
        training.save_checkpoint(path, tiny_params)
        blob = path.read_bytes()
        magic_len = len(b"PROBFAS-CKPT v1\n")
        (hlen,) = struct.unpack("<I", blob[magic_len : magic_len + 4])
        assert blob[magic_len + 4 + hlen :] == tiny_params.flat.tobytes()
        loaded, _ = training.load_checkpoint(path)
        assert np.array_equal(loaded.flat, tiny_params.flat)
        for name, t in loaded.named_tensors():
            assert np.shares_memory(t, loaded.flat), name

    def test_stage_objective_gradients_are_views_of_flat(self, tiny_dataset, tiny_params):
        X, c = tiny_dataset.X(), tiny_dataset.c_labels()
        s = {"spoof_type": tiny_dataset.s_labels("spoof_type")}
        eps = np.random.default_rng(0).standard_normal((len(c), tiny_params.B))
        _, g1, _ = with_grads(losses.stage1_objective, tiny_params, X, c, s, eps)
        _, g2, _ = with_grads(losses.stage2_objective, tiny_params, model.embed(tiny_params, X), c)
        for grads in (g1, g2):
            assert not np.shares_memory(grads.flat, tiny_params.flat)
            for name, t in grads.named_tensors():
                assert np.shares_memory(t, grads.flat), name

    def test_stack_holds_replica_views(self, tiny_params):
        other = tiny_params.copy()
        other.flat[...] += 1.0
        stack = model.ModelParams.stack([tiny_params, other])
        assert stack.flat.shape == (2, tiny_params.flat.size)
        assert stack.D == tiny_params.D and stack.B == tiny_params.B
        for (name, t), (_, one) in zip(stack.named_tensors(), tiny_params.named_tensors()):
            assert t.shape == (2, *one.shape), name
            assert np.shares_memory(t, stack.flat), name
            assert np.array_equal(t[0], one) and np.array_equal(t[1], one + 1.0), name
        second = stack.replica(1)
        assert second.flat.shape == tiny_params.flat.shape and np.shares_memory(second.flat, stack.flat)
        assert np.array_equal(second.flat, other.flat)
        assert stack.zeros_like().flat.shape == stack.flat.shape
        with pytest.raises(ValueError):
            stack.with_flat(np.zeros((2, 2, tiny_params.flat.size)))

    def test_check_finite(self, tiny_params):
        p = tiny_params.copy()
        p.w_lq[0, 0] = np.nan
        with pytest.raises(ValueError, match="w_lq"):
            p.check_finite()


class TestBackbone:
    def test_shapes_and_dim_check(self, tiny_params):
        X = np.random.default_rng(0).standard_normal((9, tiny_params.D))
        mu = model.embed(tiny_params, X)
        assert mu.shape == (9, tiny_params.B)
        with pytest.raises(ValueError):
            model.embed(tiny_params, X[:, :-1])

    def test_embed_backward_matches_fd(self, tiny_params):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((5, tiny_params.D))
        R = rng.standard_normal((5, tiny_params.B))
        flat0 = tiny_params.flat.copy()
        # backbone parameters only: omega/variance heads do not enter this loss
        n_backbone = sum(W.size + b.size for W, b in tiny_params.layers)

        def f(vec):
            p = tiny_params.with_flat(vec.copy())
            return float((model.embed(p, X) * R).sum())

        mu, cache = model.embed_with_cache(tiny_params, X)
        grads = tiny_params.zeros_like()
        model.embed_backward(tiny_params, cache, R, grads)
        analytic = np.concatenate([np.concatenate([gW.ravel(), gb.ravel()]) for gW, gb in grads.layers])
        numeric = fd_gradient(f, flat0)[:n_backbone]
        assert rel_err(analytic, numeric) < FD_TOL


# embed and dq_variance of a wide head on many rows; prints their SHA-256
_WIDE_HEAD_SCRIPT = """
import hashlib
import numpy as np
from probfas import model
p = model.init_params(4, {"a": 3}, B=19, hidden=(32,), seed=25)
rng = np.random.default_rng(25)
for _, t in p.named_tensors():
    t[...] += rng.standard_normal(t.shape) * 0.3
mu = model.embed(p, rng.standard_normal((28636, 4)) * 3)
print(hashlib.sha256(mu.tobytes() + model.dq_variance(p, mu).tobytes()).hexdigest())
"""

# prints the sizes at which the blocked embed or dq_variance differs from
# one product over all rows
_ONE_PRODUCT_SCRIPT = """
import numpy as np
from probfas import model
rng = np.random.default_rng(3)
bad = []
for D, B, hidden in [(8, 16, (32,)), (4, 6, (8,))]:
    p = model.init_params(D, {"a": 3}, B=B, hidden=hidden, seed=3)
    for _, t in p.named_tensors():
        t[...] += rng.standard_normal(t.shape) * 0.3
    for n in (511, 512, 513, 514, 519, 520, 587, 600, 767, 768, 1024, 1025, 1100, 10000, 80000):
        X = rng.standard_normal((n, D)) * 3
        one = model.embed_with_cache(p, X)[0]
        if model.embed(p, X).tobytes() != one.tobytes():
            bad.append(("embed", B, n))
        if model.dq_variance(p, one).tobytes() != np.exp(one @ p.w_dq + p.b_dq).tobytes():
            bad.append(("dq_variance", B, n))
print(bad)
"""


def _run(script, blas_threads=None):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    if blas_threads:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return proc.stdout.strip()


class TestRowBlocks:
    def test_tiny_widths_lone_and_three_row_batches_give_the_64_row_bytes(self, tiny_params):
        # a lone row is padded to two, so it takes the matrix-matrix call of
        # every larger batch rather than a matrix-vector call that rounds
        # differently
        X = np.random.default_rng(8).standard_normal((64, tiny_params.D)) * 3.0
        mu = model.embed(tiny_params, X)
        for i in range(len(X)):
            assert model.embed(tiny_params, X[i : i + 1]).tobytes() == mu[i].tobytes(), i
            assert model.embed(tiny_params, X[i : i + 3])[0].tobytes() == mu[i].tobytes(), i

    @pytest.mark.parametrize("n", [20, 75, 76, 100, 300, 700])
    def test_rows_do_not_depend_on_the_other_rows_values(self, n):
        """At the benchmark widths, replacing every other row of a batch
        leaves the bytes of the kept rows. Their bytes can depend on the
        row count, though: BLAS picks its kernel by size, and of 10 rows
        embedded in a 10-row batch and again in each batch above, 40 of
        the 60 compared differed (all in batches of 76 rows or more). So
        nothing here compares batches of different counts."""
        params = model.init_params(8, {"spoof_type": 3}, B=16, hidden=(32,))
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, 8)) * 3.0
        other = X.copy()
        other[1::2] = rng.standard_normal(other[1::2].shape) * 3.0
        assert model.embed(params, X)[::2].tobytes() == model.embed(params, other)[::2].tobytes()

    def test_stacked_rows_equal_each_replica(self, tiny_params):
        # a stack of three replicas on 600 rows each crosses the 512-row block
        rng = np.random.default_rng(9)
        replicas = [tiny_params.copy() for _ in range(3)]
        for p in replicas[1:]:
            p.flat[...] += rng.standard_normal(p.flat.shape) * 0.1
        stack = model.ModelParams.stack(replicas)
        for n in (1, 2, 600):
            X = rng.standard_normal((3, n, tiny_params.D)) * 3.0
            mu = model.embed(stack, X)
            s2 = model.dq_variance(stack, mu)
            for r, p in enumerate(replicas):
                assert mu[r].tobytes() == model.embed(p, X[r]).tobytes(), (n, r)
                assert s2[r].tobytes() == model.dq_variance(p, mu[r]).tobytes(), (n, r)

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("n", [1, 255, 256, 511, 512, 513, 767, 768, 1000, 5000])
    def test_blocks_written_in_place_equal_the_concatenated_list(self, monkeypatch, n, stacked):
        def concatenated(fn, M):  # the list of block results and one np.concatenate
            n, axis = M.shape[-2], M.ndim - 2
            starts = list(range(0, n, model._ROW_BLOCK)) or [0]
            if len(starts) > 1 and n - starts[-1] < model._ROW_BLOCK // 2:
                starts[-1] -= model._ROW_BLOCK // 2
            if len(starts) == 1:
                return fn(M)
            ends = starts[1:] + [n]
            return np.concatenate([fn(M[..., a:b, :]) for a, b in zip(starts, ends)], axis=axis)

        rng = np.random.default_rng(n)
        replicas = [model.init_params(8, {"spoof_type": 3}, B=16, hidden=(32,), seed=s) for s in range(2)]
        for p in replicas:
            p.flat[...] += rng.standard_normal(p.flat.shape) * 0.1
        params = model.ModelParams.stack(replicas) if stacked else replicas[0]
        X = rng.standard_normal((2, n, 8) if stacked else (n, 8)) * 3.0
        mu = model.embed(params, X)
        s2 = model.dq_variance(params, mu)
        monkeypatch.setattr(model, "_by_row_blocks", concatenated)
        assert mu.tobytes() == model.embed(params, X).tobytes()
        assert s2.tobytes() == model.dq_variance(params, mu).tobytes()

    def test_empty_batch(self, tiny_params):
        assert model.embed(tiny_params, np.zeros((0, tiny_params.D))).shape == (0, tiny_params.B)
        assert model.dq_variance(tiny_params, np.zeros((0, tiny_params.B))).shape == (0,)

    def test_blocks_give_the_one_product_bytes(self):
        # on one BLAS thread, where one product over all rows is well defined
        assert _run(_ONE_PRODUCT_SCRIPT, blas_threads="1") == "[]"

    def test_bytes_do_not_depend_on_blas_threads(self):
        # a one-call product of this size runs on every core, and for this
        # head a few sigma_D^2 rows then round differently than on one core
        assert _run(_WIDE_HEAD_SCRIPT, blas_threads="1") == _run(_WIDE_HEAD_SCRIPT)


class TestVarianceHeads:
    def test_lq_backward_matches_fd(self, tiny_params):
        rng = np.random.default_rng(6)
        p = tiny_params.copy()
        p.w_lq[...] = rng.standard_normal(p.w_lq.shape) * 0.3
        p.b_lq[...] = rng.standard_normal(p.b_lq.shape) * 0.3
        mu = rng.standard_normal((4, p.B))
        R = rng.standard_normal((4, p.B))

        sigma = model.lq_variance(p, mu)
        dw, db, dmu = model.lq_variance_backward(p, mu, sigma, R)

        def f_w(vec):
            q = p.copy()
            q.w_lq[...] = vec.reshape(q.w_lq.shape)
            return float((model.lq_variance(q, mu) * R).sum())

        def f_mu(vec):
            return float((model.lq_variance(p, vec.reshape(mu.shape)) * R).sum())

        assert rel_err(dw.ravel(), fd_gradient(f_w, p.w_lq.ravel())) < FD_TOL
        assert rel_err(dmu.ravel(), fd_gradient(f_mu, mu.ravel())) < FD_TOL
        db_num = fd_gradient(
            lambda v: float(
                (np.exp(0.5 * (mu @ p.w_lq.T + v)) * R).sum()
            ),
            p.b_lq.copy(),
        )
        assert rel_err(db, db_num) < FD_TOL

    def test_dq_backward_matches_fd(self, tiny_params):
        rng = np.random.default_rng(7)
        p = tiny_params.copy()
        p.w_dq[...] = rng.standard_normal(p.w_dq.shape) * 0.3
        p.b_dq[...] = 0.2
        mu = rng.standard_normal((5, p.B))
        R = rng.standard_normal(5)

        s2 = model.dq_variance(p, mu)
        dw, db, dmu = model.dq_variance_backward(p, mu, s2, R)

        def f_w(vec):
            q = p.copy()
            q.w_dq[...] = vec
            return float((model.dq_variance(q, mu) * R).sum())

        def f_mu(vec):
            return float((model.dq_variance(p, vec.reshape(mu.shape)) * R).sum())

        assert rel_err(dw, fd_gradient(f_w, p.w_dq.copy())) < FD_TOL
        assert rel_err(dmu.ravel(), fd_gradient(f_mu, mu.ravel())) < FD_TOL
        db_num = fd_gradient(
            lambda v: float((np.exp(mu @ p.w_dq + v[0]) * R).sum()),
            np.array([float(p.b_dq)]),
        )
        assert rel_err(np.array([db]), db_num) < FD_TOL


class TestClassifiers:
    def test_logits_shapes(self, tiny_params):
        mu = np.zeros((3, tiny_params.B))
        assert model.live_spoof_logits(tiny_params, mu).shape == (3, 2)
        assert model.semantic_logits(tiny_params, "spoof_type", mu).shape == (3, 3)

    def test_dim_mismatch_rejected(self, tiny_params):
        bad = np.zeros((3, tiny_params.B + 1))
        with pytest.raises(ValueError):
            model.live_spoof_logits(tiny_params, bad)
        with pytest.raises(ValueError):
            model.semantic_logits(tiny_params, "spoof_type", bad)
