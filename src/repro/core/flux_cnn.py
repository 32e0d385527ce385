"""The band-wise CNN flux (magnitude) estimator — paper Fig. 7.

Input is a pair of PSF-matched stamps (reference, observation); the
network computes their difference, compresses it with the signed
logarithm, crops to the configured input size, and regresses the stellar
magnitude of the embedded transient through three convolution modules
(5x5 conv -> batch norm -> PReLU -> 2x2 max pool; 10/20/30 channels) and
three fully connected layers.

All five bands share one set of weights (the paper's design); a per-band
ensemble is available for the ablation.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.tensor import Tensor

__all__ = ["BandwiseCNN", "PerBandCNNEnsemble", "MAG_CENTER", "MAG_SCALE"]

# The regressed output is (mag - MAG_CENTER) / MAG_SCALE, keeping the FC
# output near unit scale for magnitudes in the survey's 21-27 range.
MAG_CENTER = 24.5
MAG_SCALE = 2.5


class BandwiseCNN(nn.Module):
    """Magnitude regressor over (reference, observation) stamp pairs.

    Parameters
    ----------
    input_size:
        Side length the difference image is centre-cropped to before the
        convolutions (Table 1 sweeps 36..65; 60 is the paper's choice).
    channels:
        Channel widths of the three conv modules (paper: 10, 20, 30).
    fc_hidden:
        Widths of the two hidden fully connected layers.
    input_transform:
        ``'signed_log'`` (paper) or ``'linear'`` (ablation).
    pool:
        ``'max'`` (paper — at most one SN per stamp) or ``'avg'``.
    """

    def __init__(
        self,
        input_size: int = 60,
        channels: tuple[int, int, int] = (10, 20, 30),
        fc_hidden: tuple[int, int] = (64, 32),
        input_transform: str = "signed_log",
        pool: str = "max",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if input_transform not in ("signed_log", "linear"):
            raise ValueError(f"unknown input_transform {input_transform!r}")
        if pool not in ("max", "avg"):
            raise ValueError(f"unknown pool {pool!r}")
        if len(channels) != 3:
            raise ValueError("exactly three conv modules (paper architecture)")
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.input_transform = input_transform
        self.pool_kind = pool

        size = input_size
        in_ch = 1
        conv_layers: list[nn.Module] = []
        for ch in channels:
            conv_layers.append(nn.Conv2d(in_ch, ch, kernel_size=5, rng=rng))
            conv_layers.append(nn.BatchNorm2d(ch))
            conv_layers.append(nn.PReLU(ch))
            pool_layer = nn.MaxPool2d(2) if pool == "max" else nn.AvgPool2d(2)
            conv_layers.append(pool_layer)
            size = (size - 4) // 2
            if size < 1:
                raise ValueError(f"input_size {input_size} too small for 3 conv modules")
            in_ch = ch
        self.convs = nn.Sequential(*conv_layers)
        # (conv, bn, act, pool) views of the same modules, consumed by the
        # folded inference path in _conv_inference.
        self._conv_blocks = [
            tuple(conv_layers[i : i + 4]) for i in range(0, len(conv_layers), 4)
        ]
        self.feature_dim = channels[-1] * size * size

        self.fc = nn.Sequential(
            nn.Linear(self.feature_dim, fc_hidden[0], rng=rng),
            nn.PReLU(),
            nn.Linear(fc_hidden[0], fc_hidden[1], rng=rng),
            nn.PReLU(),
            nn.Linear(fc_hidden[1], 1, rng=rng),
        )

    # ------------------------------------------------------------------
    def _crop(self, pairs: Tensor) -> Tensor:
        """Centre-crop the spatial axes to ``input_size``."""
        size = pairs.shape[-1]
        if size < self.input_size:
            raise ValueError(
                f"stamps of size {size} are smaller than input_size {self.input_size}"
            )
        if size == self.input_size:
            return pairs
        start = (size - self.input_size) // 2
        stop = start + self.input_size
        return pairs[:, :, start:stop, start:stop]

    def forward(self, pairs: Tensor) -> Tensor:
        """Map (N, 2, S, S) stamp pairs to (N,) magnitudes."""
        if pairs.ndim != 4 or pairs.shape[1] != 2:
            raise ValueError(f"expected (N, 2, S, S) pairs, got {pairs.shape}")
        pairs = self._crop(pairs)
        diff = pairs[:, 1:2] - pairs[:, 0:1]  # (N, 1, S, S)
        if self.input_transform == "signed_log":
            diff = F.signed_log10(diff)
        if not self.training and not nn.is_grad_enabled():
            features = self._conv_inference(diff).flatten(start_dim=1)
        else:
            features = self.convs(diff).flatten(start_dim=1)
        out = self.fc(features)
        return out.reshape(-1) * MAG_SCALE + MAG_CENTER

    def _conv_inference(self, x: Tensor) -> Tensor:
        """Conv stack with batch norm folded into the conv weights.

        At inference batch norm is a fixed per-channel affine map
        (:meth:`~repro.nn.layers._BatchNorm.folded`), so it folds into the
        convolution: ``w' = w * scale`` and ``b' = b * scale + shift``.
        That removes the separate normalisation pass over each conv
        activation (the largest one is the full L1 output).  Both
        inference entry points (:meth:`predict` and :meth:`fused_forward`)
        route through here.  Training uses the unfolded ``self.convs``
        stack.

        A max-pooled block whose PReLU slopes are all ``>= 0`` pools
        first: the bias add and ``where(x > 0, x, alpha * x)`` are then
        monotone non-decreasing in float arithmetic, so
        ``prelu(pool(conv) + b') == pool(prelu(conv + b'))`` bit for bit,
        and both passes run on a quarter of the elements.  A negative or
        NaN slope and average pooling keep the ``pool(act(conv + b'))``
        order.
        """
        for conv, bn, act, pool in self._conv_blocks:
            scale, shift = bn.folded()
            w = conv.weight.data * scale[:, None, None, None]
            b = conv.bias.data * scale + shift if conv.bias is not None else shift
            b = b.astype(np.float32, copy=False)
            alpha = act.alpha.data
            pool_first = isinstance(pool, nn.MaxPool2d) and bool(np.all(alpha >= 0))
            out = nn.conv2d(
                x,
                Tensor(w.astype(np.float32, copy=False)),
                None if pool_first else Tensor(b),
                stride=conv.stride,
                padding=conv.padding,
                # The conv output only lives until the pool or activation
                # below reads it, so it can borrow a cached workspace buffer.
                scratch_out=True,
            )
            if pool_first:
                pooled = pool(out)
                pooled.data += b[:, None, None]
                x = act(pooled)
            else:
                x = pool(act(out))
        return x

    # ------------------------------------------------------------------
    def predict(self, pairs: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Chunked inference over a NumPy batch of pairs; returns magnitudes.

        The fixed-size chunking bounds the activations of each conv
        layer.  Each row's magnitude depends on that row alone (conv and
        FC products run per row at inference), so the output is bit-
        identical to :meth:`fused_forward` for any ``batch_size``.
        """
        was_training = self.training
        self.eval()
        outputs = []
        with nn.no_grad():
            for start in range(0, len(pairs), batch_size):
                chunk = Tensor(pairs[start : start + batch_size])
                outputs.append(self.forward(chunk).numpy())
        if was_training:
            self.train()
        return np.concatenate(outputs) if outputs else np.empty(0, dtype=np.float32)

    def fused_forward(self, pairs: np.ndarray) -> np.ndarray:
        """Single-pass inference over the whole ``(M, 2, S, S)`` batch.

        The serving engine flattens its ``(N, V)`` sample/visit axes into
        one row axis, so every layer runs once over the entire request
        batch instead of :meth:`predict`'s fixed 256-row chunks — one
        ``conv2d`` call per conv layer (its im2col columns stream through
        a cache-sized buffer, a GEMM per row), no per-chunk Tensor
        churn, and each conv output borrows a bucketed buffer from the
        workspace cache in :mod:`repro.nn.ops`.

        The returned float32 magnitudes are bit-identical to
        :meth:`predict` with any chunk size, and a row's magnitude is the
        same whatever other rows share the batch.
        """
        pairs = np.asarray(pairs)
        if len(pairs) == 0:
            return np.empty(0, dtype=np.float32)
        was_training = self.training
        self.eval()
        with nn.no_grad():
            out = self.forward(Tensor(pairs)).numpy()
        if was_training:
            self.train()
        return out.astype(np.float32, copy=False)


class PerBandCNNEnsemble(nn.Module):
    """Five independent CNNs, one per band (weight-sharing ablation)."""

    def __init__(self, n_bands: int = 5, rng: np.random.Generator | None = None, **kwargs) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.members = nn.ModuleList([BandwiseCNN(rng=rng, **kwargs) for _ in range(n_bands)])

    def forward(self, pairs: Tensor, band_idx: np.ndarray) -> Tensor:
        """Route each pair to its band's CNN.

        ``band_idx`` is an (N,) integer array aligned with ``pairs``.
        """
        band_idx = np.asarray(band_idx)
        if band_idx.shape[0] != pairs.shape[0]:
            raise ValueError("band_idx must align with pairs")
        outputs: list[Tensor] = []
        order: list[np.ndarray] = []
        for b, member in enumerate(self.members):
            sel = np.flatnonzero(band_idx == b)
            if sel.size == 0:
                continue
            outputs.append(member(pairs[sel]))
            order.append(sel)
        if not outputs:
            # Empty input (or every band filtered out): nothing to
            # concatenate — return an empty float32 result like
            # BandwiseCNN.predict does instead of crashing in concat.
            return Tensor(np.empty(0, dtype=np.float32))
        merged = nn.concat(outputs, axis=0)
        # Undo the per-band grouping.
        permutation = np.concatenate(order)
        inverse = np.empty_like(permutation)
        inverse[permutation] = np.arange(permutation.size)
        return merged[inverse]
