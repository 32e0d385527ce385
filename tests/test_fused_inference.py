"""Fused batch inference: parity and the workspace cache.

The serving contract pinned here:

* ``BandwiseCNN.fused_forward`` is bit-identical to the chunked
  ``predict`` reference path — for clean inputs, for any chunk size,
  and for inputs damaged by the :mod:`repro.runtime.faults` corruptors
  and repaired by the serve layer;
* the folded conv stack (pool first wherever that is exact) is
  bit-identical to an explicit ``pool(act(conv2d(x, w', b')))`` loop,
  and agrees with the unfolded training-graph forward to a measured
  tolerance;
* ``InferenceEngine.classify_arrays`` returns the same result, field
  for field, for a sample whatever batch it is scored in;
* the workspace cache, which now holds only the conv outputs that
  ``_conv_inference`` borrows (the im2col columns stream through a
  small per-call buffer), buckets batch sizes, so bursty mixed-size
  traffic hits cached buffers instead of thrashing allocations.
"""

import numpy as np
import pytest

from repro import nn, obs
from repro.core.features import _as_float, features_from_arrays
from repro.core.flux_cnn import MAG_CENTER, MAG_SCALE, BandwiseCNN, PerBandCNNEnsemble
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.runtime import BurstSchedule, DropBand, NaNPixels, SaturateRegion, TruncateCutout
from repro.serve import diagnose_and_repair_batch

from .helpers import make_serve_engine, make_serve_sample, smoke_classify_workload

SIZE = 36  # smallest supported input keeps the CNN cheap


@pytest.fixture(scope="module")
def cnn():
    model = BandwiseCNN(input_size=SIZE, rng=np.random.default_rng(7))
    model.eval()
    return model


def _pairs(n, rng, stamp=SIZE, scale=100.0):
    return (rng.normal(size=(n, 2, stamp, stamp)) * scale).astype(np.float32)


class TestFusedChunkedParity:
    # 320 rows is one 64-sample x 5-visit classify batch: large enough
    # that BLAS would block the FC GEMMs differently from small chunks.
    @pytest.mark.parametrize("rows", [13, 320])
    def test_bit_identical_across_chunk_sizes(self, cnn, rows):
        rng = np.random.default_rng(0)
        pairs = _pairs(rows, rng)
        fused = cnn.fused_forward(pairs)
        assert fused.dtype == np.float32
        for batch_size in (1, 2, 3, 5, 7, 13, 16, 100, 256):
            chunked = cnn.predict(pairs, batch_size=batch_size)
            assert np.array_equal(fused, chunked), f"chunk size {batch_size}"

    def test_bit_identical_on_larger_stamps(self, cnn):
        # The crop path (stamp > input_size) must not disturb parity.
        rng = np.random.default_rng(1)
        pairs = _pairs(9, rng, stamp=SIZE + 6)
        assert np.array_equal(cnn.fused_forward(pairs), cnn.predict(pairs, batch_size=4))

    @pytest.mark.parametrize(
        "corruptor",
        [
            DropBand(bands=2),
            NaNPixels(fraction=0.01, seed=3),
            SaturateRegion(size=5, seed=4),
            TruncateCutout(fraction=0.1),
        ],
        ids=["drop-band", "nan-pixels", "saturate", "truncate"],
    )
    def test_bit_identical_on_repaired_inputs(self, cnn, corruptor):
        # Damaged traffic goes through the serve repair layer before the
        # CNN; the fused path must agree bit for bit on the repaired
        # (and partially masked) visit batch exactly as on clean data.
        rng = np.random.default_rng(2)
        n, visits = 4, 5
        batch = (rng.normal(size=(n, visits, 2, SIZE, SIZE)) * 100).astype(np.float32)
        corrupted = corruptor(batch)
        flat = corrupted.reshape(n * visits, 2, SIZE, SIZE)
        repaired, _, kept = diagnose_and_repair_batch(flat, np.tile(np.arange(visits), n))
        usable = repaired[np.flatnonzero(kept)]
        assert usable.shape[0] > 0  # the corruptors never kill every visit
        assert np.array_equal(cnn.fused_forward(usable), cnn.predict(usable, batch_size=3))

    def test_empty_batch(self, cnn):
        out = cnn.fused_forward(np.empty((0, 2, SIZE, SIZE), dtype=np.float32))
        assert out.shape == (0,) and out.dtype == np.float32

    def test_restores_training_mode(self, cnn):
        cnn.train()
        try:
            cnn.fused_forward(_pairs(2, np.random.default_rng(3)))
            assert cnn.training
        finally:
            cnn.eval()

    def test_engine_parity_fused_vs_chunked(self):
        # End to end through classify_arrays: the fused engine returns
        # the same probabilities as the chunked reference engine.
        fused_engine = make_serve_engine(seed=0)
        chunked_engine = make_serve_engine(seed=0)
        chunked_engine.fused = False
        pairs, mjd = make_serve_sample(fused_engine, seed=5)
        batch = np.stack([pairs] * 3)
        mjds = np.stack([mjd] * 3)
        got = fused_engine.classify_arrays(batch, mjds)
        want = chunked_engine.classify_arrays(batch, mjds)
        for a, b in zip(got, want):
            assert a.probability == b.probability
            assert a.confidence == b.confidence

    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    def test_engine_partitions_bit_identical(self, size):
        # A sample's result depends on the sample alone: scoring the batch
        # in contiguous pieces returns every field of the full-batch call.
        engine, pairs, mjd = smoke_classify_workload(seed=4)
        want = engine.classify_arrays(pairs, mjd)
        got = []
        for start in range(0, len(pairs), size):
            got.extend(
                engine.classify_arrays(
                    pairs[start : start + size],
                    mjd[start : start + size],
                    start_index=start,
                )
            )
        assert got == want


#: Largest |fused_forward - unfolded forward| allowed, in magnitudes.  The
#: unfolded path normalises after the conv and runs each FC layer as one
#: batch GEMM, so the last bits move; the worst gap measured over 8 model
#: seeds x {max, avg} pooling x the slope settings below (40 rows each,
#: randomised batch-norm statistics) was 5.1e-5 mag, about 27 float32 ULPs
#: at 24.5 mag.
UNFOLDED_TOL = 2e-4

#: PReLU slope settings: with every slope >= 0 the max-pooled blocks pool
#: first; "one-negative" keeps the written order, "one-above-1" pools first.
SLOPES = ["zero", "one", "uniform", "one-negative", "one-above-1"]


def _randomised_cnn(pool, slopes, seed=0):
    """A model with non-trivial batch-norm statistics and the given slopes."""
    model = BandwiseCNN(input_size=SIZE, pool=pool, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(100 + seed)
    for _, bn, act, _ in model._conv_blocks:
        bn.running_mean[:] = rng.normal(0.0, 0.5, bn.running_mean.shape)
        bn.running_var[:] = rng.uniform(0.3, 3.0, bn.running_var.shape)
        bn.gamma.data[:] = rng.uniform(0.5, 1.5, bn.gamma.data.shape)
        bn.beta.data[:] = rng.normal(0.0, 0.2, bn.beta.data.shape)
        alpha = act.alpha.data
        if slopes in ("zero", "one"):
            alpha[:] = 0.0 if slopes == "zero" else 1.0
        else:
            alpha[:] = rng.uniform(0.0, 1.0, alpha.shape)
        if slopes == "one-negative":
            alpha[0] = -0.3
        elif slopes == "one-above-1":
            alpha[0] = 1.7
    model.eval()
    return model


def _explicit_forward(model, pairs):
    """Inference in the stack's written order: ``pool(act(conv2d(x, w', b')))``.

    Batch norm is folded here from its parameters and running statistics,
    not through ``_BatchNorm.folded``, so neither a wrong fold nor a wrong
    reorder in ``_conv_inference`` can cancel out against this reference.
    """
    with nn.no_grad():
        x = model._crop(Tensor(pairs))
        x = F.signed_log10(x[:, 1:2] - x[:, 0:1])
        for conv, bn, act, pool in model._conv_blocks:
            scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
            shift = bn.beta.data - bn.running_mean * scale
            w = Tensor(conv.weight.data * scale[:, None, None, None])
            b = Tensor(conv.bias.data * scale + shift)
            x = pool(act(nn.conv2d(x, w, b, stride=conv.stride, padding=conv.padding)))
        out = model.fc(x.flatten(start_dim=1))
        return (out.reshape(-1) * MAG_SCALE + MAG_CENTER).numpy()


class TestPoolFirstReorder:
    """The pool-first order of ``_conv_inference`` against references outside it."""

    CASES = [("max", slopes) for slopes in SLOPES] + [("avg", "uniform")]

    @pytest.mark.parametrize("pool, slopes", CASES)
    def test_bit_identical_to_explicit_loop(self, pool, slopes):
        model = _randomised_cnn(pool, slopes)
        pairs = _pairs(40, np.random.default_rng(21), stamp=SIZE + 2)
        assert np.array_equal(model.fused_forward(pairs), _explicit_forward(model, pairs))

    @pytest.mark.parametrize("pool, slopes", CASES)
    def test_close_to_unfolded_forward(self, pool, slopes):
        model = _randomised_cnn(pool, slopes, seed=1)
        pairs = _pairs(40, np.random.default_rng(22), stamp=SIZE + 2)
        assert nn.is_grad_enabled()  # eval mode + grad: the unfolded self.convs stack
        unfolded = model(Tensor(pairs)).numpy()
        gap = np.abs(model.fused_forward(pairs) - unfolded).max()
        assert gap <= UNFOLDED_TOL, gap


class TestFloat16Inference:
    """float16 inputs follow the one float32 inference policy."""

    def test_precision_context_dtype_policy(self, cnn):
        x64 = np.ones((2, 2), dtype=np.float64)
        x16 = np.ones((2, 2), dtype=np.float16)
        assert Tensor(x16).data.dtype == np.float32  # promoted
        assert Tensor(x64).data.dtype == np.float32  # demoted
        with nn.preserve_float64():
            assert Tensor(x64).data.dtype == np.float64  # kept
            assert Tensor(x16).data.dtype == np.float32  # still promoted
        assert Tensor(x64).data.dtype == np.float32  # restored
        # Half-precision pairs score exactly like their float32 widening:
        # there is no reduced-precision path for them to take.
        pairs16 = _pairs(5, np.random.default_rng(3), scale=30.0).astype(np.float16)
        out = cnn.fused_forward(pairs16)
        assert out.dtype == np.float32
        assert np.array_equal(out, cnn.fused_forward(pairs16.astype(np.float32)))


class TestWorkspaceCache:
    def setup_method(self):
        nn.workspace_clear()

    def test_bucketing_reuses_buffer_across_batch_sizes(self, cnn):
        rng = np.random.default_rng(8)
        cnn.fused_forward(_pairs(8, rng))  # warm the 8-row bucket
        warm = nn.workspace_stats()
        for n in (5, 6, 7, 8):  # all bucket to 8 rows
            cnn.fused_forward(_pairs(n, rng))
        stats = nn.workspace_stats()
        assert stats["misses"] == warm["misses"], "bucketed sizes must not reallocate"
        assert stats["hits"] > warm["hits"]

    def test_hit_rate_under_burst_schedule(self, cnn):
        # Group a bursty arrival plan into batching windows: the window
        # populations are the daemon's micro-batch sizes — small and
        # jittery during the burst head, larger at the tail.  Power-of-
        # two bucketing keeps the cache warm across that mix.
        offsets = BurstSchedule(qps=40, duration_s=1.0, burst_factor=4.0).offsets()
        window_s = 0.05
        sizes = np.bincount((np.asarray(offsets) / window_s).astype(int))
        sizes = [int(s) for s in sizes if s > 0]
        assert len(set(sizes)) > 1  # genuinely mixed batch sizes
        rng = np.random.default_rng(9)
        for n in sizes:
            cnn.fused_forward(_pairs(n, rng))
        stats = nn.workspace_stats()
        assert stats["hit_rate"] > 0.5, stats

    def test_cache_bounded_by_lru(self):
        from repro.nn.ops import _MAX_WORKSPACES, _workspace

        for i in range(_MAX_WORKSPACES + 8):
            _workspace((1, 3 + i, 7), np.float32)
        stats = nn.workspace_stats()
        assert stats["entries"] <= _MAX_WORKSPACES

    def test_workspace_returns_exact_batch_view(self):
        from repro.nn.ops import _workspace

        buf = _workspace((5, 4), np.float32)
        assert buf.shape == (5, 4)
        assert buf.flags["C_CONTIGUOUS"]

    def test_total_stats_aggregate_across_threads(self, cnn):
        import threading

        rng = np.random.default_rng(11)
        cnn.fused_forward(_pairs(4, rng))
        cnn.fused_forward(_pairs(4, rng))  # second pass hits the cache
        done = threading.Event()

        def work():
            cnn.fused_forward(_pairs(4, np.random.default_rng(12)))
            done.set()

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        assert done.is_set()
        local = nn.workspace_stats()
        total = nn.workspace_total_stats()
        # the process-wide view is at least this thread's view
        assert total["threads"] >= 1
        assert total["hits"] >= local["hits"] >= 1
        assert total["misses"] >= local["misses"] >= 1
        assert total["bytes"] >= local["bytes"] > 0
        assert 0.0 <= total["hit_rate"] <= 1.0

    def test_metrics_source_matches_total_stats_contract(self, cnn, tmp_path):
        """A telemetry session exports nn.workspace_total_stats as
        ``nn.workspace_*`` gauges at close: every raw count, no hit rate."""
        cnn.fused_forward(_pairs(4, np.random.default_rng(13)))
        obs.start(tmp_path)
        gauges = obs.stop()["gauges"]
        total = nn.workspace_total_stats()
        exported = {
            name[len("nn.workspace_"):]: value
            for name, value in gauges.items()
            if name.startswith("nn.workspace_")
        }
        del total["hit_rate"]
        assert exported == total
        assert exported["entries"] >= 1 and exported["bytes"] > 0


class TestSatelliteRegressions:
    def test_features_integer_input_stays_float32(self):
        # _as_float used to promote integer arrays to float64, silently
        # upcasting every downstream feature computation.
        assert _as_float(np.arange(4, dtype=np.int64)).dtype == np.float32
        assert _as_float(np.ones(3, dtype=bool)).dtype == np.float32
        assert _as_float(np.ones(3, dtype=np.float32)).dtype == np.float32
        assert _as_float(np.ones(3, dtype=np.float64)).dtype == np.float64

    def test_features_from_integer_arrays(self):
        flux = np.arange(10, dtype=np.int64).reshape(2, 5)
        mjd = (57000 + np.arange(10, dtype=np.int64)).reshape(2, 5)
        out = features_from_arrays(flux, mjd, epochs=1)
        assert out.dtype == np.float32
        assert np.isfinite(out).all()

    def test_ensemble_empty_input(self):
        ensemble = PerBandCNNEnsemble(
            n_bands=2, rng=np.random.default_rng(0), input_size=SIZE
        )
        ensemble.eval()
        with nn.no_grad():
            out = ensemble(
                Tensor(np.empty((0, 2, SIZE, SIZE), dtype=np.float32)),
                np.empty(0, dtype=np.int64),
            )
        assert out.shape == (0,)
        assert out.data.dtype == np.float32
