"""Pure-numpy MLP policy over candidate feature rows.

No autograd, no torch: the network is a list of ``(W, b)`` pairs with
tanh hidden layers and a scalar output head, applied row-wise to the
``(K, N_FEATURES)`` candidate matrix from
:func:`repro.env.train.features.candidate_features`.  The ``K`` logits
are softmaxed into a distribution over *admissible* candidates only —
inadmissible ones were never materialised, which is this subsystem's
form of the ``score_batch`` NaN-skip convention.

The backward pass is written out by hand (:meth:`PolicyNetwork.backward`
takes ``dL/dlogits`` and returns parameter gradients), so the learner
stays dependency-free and every floating-point operation is
deterministic for a fixed seed.

Checkpoints are single ``.npz`` files: one array per parameter plus a
``meta`` JSON string carrying the architecture, the
:class:`~repro.env.train.features.FeatureConfig`, and training
provenance (scenario, seed, iteration, eval score).  They round-trip
bit-for-bit — ``load`` then ``save`` then ``load`` yields identical
parameters and therefore identical actions.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .features import N_FEATURES, FeatureConfig

__all__ = ["PolicyNetwork", "CHECKPOINT_FORMAT", "softmax", "log_softmax"]

#: Version tag written into every checkpoint's metadata.
CHECKPOINT_FORMAT = 1


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax over a 1-D logit vector."""
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over a 1-D logit vector."""
    return np.exp(log_softmax(logits))


class PolicyNetwork:
    """Tanh MLP mapping candidate feature rows to one logit each."""

    def __init__(self, hidden: tuple[int, ...] = (32, 32), *, seed: int = 0,
                 feature_config: FeatureConfig | None = None,
                 metadata: dict | None = None) -> None:
        self.hidden = tuple(int(h) for h in hidden)
        self.feature_config = feature_config or FeatureConfig()
        #: Training provenance (scenario, seed, iteration, eval score, ...);
        #: free-form JSON-able dict persisted alongside the weights.
        self.metadata: dict = dict(metadata or {})
        sizes = (N_FEATURES, *self.hidden, 1)
        rng = np.random.default_rng(seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            # Small final-layer init keeps the starting policy near
            # uniform, so early exploration is unbiased.
            scale = 0.01 if i == len(sizes) - 2 else 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.normal(0.0, scale, (fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out, dtype=np.float64))

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------

    def forward(self, features: np.ndarray) -> np.ndarray:
        """Logits for a ``(K, N_FEATURES)`` candidate matrix."""
        h = features
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ w
            h += b
            np.tanh(h, out=h)
        logits = h @ self.weights[-1]
        logits += self.biases[-1]
        return logits[:, 0]

    def forward_cached(self, features: np.ndarray,
                       ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Like :meth:`forward`, also returning per-layer activations."""
        acts = [features]
        h = features
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.tanh(h @ w + b)
            acts.append(h)
        logits = (h @ self.weights[-1] + self.biases[-1])[:, 0]
        return logits, acts

    def backward(self, acts: list[np.ndarray], dlogits: np.ndarray,
                 grads: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Accumulate ``dL/dparams`` for one decision into ``grads``.

        ``acts`` is the activation list from :meth:`forward_cached`,
        ``dlogits`` the ``(K,)`` upstream gradient, and ``grads`` a list
        of ``(dW, db)`` buffers shaped like the parameters (accumulated
        in place so one buffer serves a whole batch of decisions).
        """
        delta = dlogits[:, None]  # (K, 1) gradient wrt the output layer
        for layer in range(len(self.weights) - 1, -1, -1):
            a = acts[layer]
            dw, db = grads[layer]
            dw += a.T @ delta
            db += delta.sum(axis=0)
            if layer > 0:
                # Backprop through tanh: acts[layer] is tanh(pre-act).
                delta = (delta @ self.weights[layer].T) * (1.0 - a * a)

    def zero_grads(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Fresh zero-filled gradient buffers matching the parameters."""
        return [(np.zeros_like(w), np.zeros_like(b))
                for w, b in zip(self.weights, self.biases)]

    # ------------------------------------------------------------------
    # distribution helpers
    # ------------------------------------------------------------------

    def distribution(self, features: np.ndarray) -> np.ndarray:
        """Action probabilities over the candidate rows."""
        return softmax(self.forward(features))

    def argmax_action(self, features: np.ndarray) -> int:
        """Deterministic greedy candidate (first-max tie-break)."""
        return int(np.argmax(self.forward(features)))

    def sample_action(self, features: np.ndarray,
                      rng: np.random.Generator) -> int:
        """Sample a candidate via inverse-CDF on one uniform draw."""
        cumulative = self.distribution(features).cumsum()
        return min(int(cumulative.searchsorted(rng.random(), side="right")),
                   cumulative.shape[0] - 1)

    # ------------------------------------------------------------------
    # checkpoint I/O
    # ------------------------------------------------------------------

    def parameters_equal(self, other: "PolicyNetwork") -> bool:
        """True iff every weight/bias array is bit-identical."""
        return (len(self.weights) == len(other.weights)
                and all(np.array_equal(a, b) for a, b
                        in zip(self.weights, other.weights))
                and all(np.array_equal(a, b) for a, b
                        in zip(self.biases, other.biases)))

    def save(self, path: str | Path) -> Path:
        """Write the checkpoint ``.npz`` (weights + JSON metadata)."""
        path = Path(path)
        meta = {
            "format": CHECKPOINT_FORMAT,
            "hidden": list(self.hidden),
            "features": self.feature_config.to_dict(),
            "metadata": self.metadata,
        }
        arrays = {"meta": np.array(json.dumps(meta, sort_keys=True))}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            arrays[f"W{i}"] = w
            arrays[f"b{i}"] = b
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "PolicyNetwork":
        """Load a checkpoint written by :meth:`save`."""
        with np.load(Path(path), allow_pickle=False) as data:
            meta = json.loads(str(data["meta"][()]))
            if meta["format"] != CHECKPOINT_FORMAT:
                raise ValueError(
                    f"unsupported checkpoint format {meta['format']!r} "
                    f"(expected {CHECKPOINT_FORMAT}) in {path}")
            model = cls.__new__(cls)
            model.hidden = tuple(meta["hidden"])
            model.feature_config = FeatureConfig.from_dict(meta["features"])
            model.metadata = dict(meta["metadata"])
            model.weights = []
            model.biases = []
            for i in range(len(model.hidden) + 1):
                model.weights.append(np.array(data[f"W{i}"],
                                              dtype=np.float64))
                model.biases.append(np.array(data[f"b{i}"],
                                             dtype=np.float64))
        expected = (N_FEATURES, *model.hidden, 1)
        shapes = tuple(w.shape[0] for w in model.weights)
        shapes += (model.weights[-1].shape[1],)
        if shapes != expected:
            raise ValueError(f"checkpoint layer shapes {shapes} do not "
                             f"match architecture {expected} in {path}")
        return model
