"""REINFORCE over the scheduling environment, end-to-end deterministic.

:class:`ReinforceLearner` trains the numpy policy network on one
scenario: every iteration samples a batch of episodes through
:class:`~repro.env.train.workers.EpisodeCollector`, turns each episode's
return into an advantage against a **per-environment-seed** baseline (an
exponential moving average of that seed's past returns — mix difficulty
varies far more across seeds than actions do within one, so a global
baseline would drown the learning signal in seed noise), and applies one
manually backpropagated policy-gradient + entropy step through a numpy
Adam optimizer.  Learning rate and entropy coefficient anneal linearly
over the run; the entropy coefficient may anneal *negative*, turning the
early exploration bonus into a late sharpening penalty that pulls the
sampled distribution onto its mode — which is what the deterministic
argmax serving path (``learned`` scheme) executes.

Everything is a pure function of :class:`TrainConfig` — episode seeds,
sampling seeds and parameter init all derive from ``config.seed``, no
wall-clock anywhere — so the same config reproduces the same
:class:`TrainResult` curve and the same checkpoint bytes, on any worker
count.  :class:`TrainResult` is JSON round-trippable like
:class:`~repro.env.EpisodeResult`, carrying the full training-curve
telemetry (:class:`IterationStats` per iteration).
"""

from __future__ import annotations

import bisect
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro._checks import require_finite, require_integer
from repro.env.environment import REWARD_KINDS
from repro.scenarios.registry import load_scenario

from .features import FeatureConfig
from .model import PolicyNetwork, log_softmax
from .scheme import LearnedPolicy
from .workers import EpisodeCollector, EpisodeSpec, Trajectory

__all__ = ["TrainConfig", "IterationStats", "TrainResult", "Adam",
           "ReinforceLearner", "UPDATE_MODES"]

#: Gradient-accumulation implementations: ``"gemm"`` stacks decisions
#: into chunked matrix products (the fast default), ``"rows"`` is the
#: row-at-a-time bit-stability oracle.
UPDATE_MODES = ("gemm", "rows")


def _int_tuple(name: str, values) -> tuple[int, ...]:
    """``values`` as a tuple, each entry checked to be an integer."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of integers, "
                         f"got {values!r}") from None
    for i, value in enumerate(values):
        require_integer(f"{name}[{i}]", value)
    return values


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run (JSON round-trippable).

    ``episode_seeds`` are the environment seeds the batch cycles over
    each iteration; ``None`` derives ``episodes_per_iter`` consecutive
    seeds from ``seed``.  ``eval_seed`` (default: the first episode
    seed) drives the deterministic greedy evaluation episode that
    selects the checkpointed iterate.  ``entropy_beta`` anneals linearly
    to ``entropy_beta_min``, which may be *negative*: the run then ends
    in a sharpening phase that pushes probability mass onto the
    distribution's mode, shrinking the gap between the sampled training
    policy and the argmax serving policy.

    ``obs_mode`` selects the environment observation path for episode
    collection and evaluation (``"features"``, the array-backed fast
    path, is bit-identical to the ``"dataclass"`` oracle — pinned by the
    fast-path parity tests).  ``update_mode`` selects the gradient
    accumulation implementation (:data:`UPDATE_MODES`): ``"gemm"`` stacks
    the batch into chunked matrix products, ``"rows"`` is the
    row-at-a-time oracle; the two agree to numerical precision but not
    bitwise (BLAS matmuls are not bit-stable across batching), so runs
    that must reproduce a historical checkpoint bit-for-bit use
    ``"rows"``.
    """

    iters: int = 150
    episodes_per_iter: int = 8
    seed: int = 0
    hidden: tuple[int, ...] = (32, 32)
    lr: float = 0.02
    lr_min: float = 0.002
    entropy_beta: float = 0.005
    entropy_beta_min: float = -0.08
    grad_clip: float = 10.0
    reward: str = "stp_delta"
    episode_seeds: tuple[int, ...] | None = None
    eval_seed: int | None = None
    eval_every: int = 5
    max_steps: int = 20000
    workers: int = 1
    obs_mode: str = "features"
    update_mode: str = "gemm"

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden", _int_tuple("hidden", self.hidden))
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be positive, got "
                             f"{self.hidden!r}")
        for name in ("iters", "episodes_per_iter", "eval_every",
                     "max_steps", "workers"):
            value = getattr(self, name)
            require_integer(name, value)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value!r}")
        require_integer("seed", self.seed)
        if self.eval_seed is not None:
            require_integer("eval_seed", self.eval_seed)
        if self.episode_seeds is not None:
            seeds = _int_tuple("episode_seeds", self.episode_seeds)
            if not seeds:
                raise ValueError("episode_seeds must not be empty "
                                 "(None derives them from seed)")
            object.__setattr__(self, "episode_seeds", seeds)
        for name in ("lr", "lr_min", "entropy_beta", "entropy_beta_min",
                     "grad_clip"):
            require_finite(name, getattr(self, name))
        if self.grad_clip < 0:
            raise ValueError(f"grad_clip must be non-negative (0 disables "
                             f"clipping), got {self.grad_clip!r}")
        if self.reward not in REWARD_KINDS:
            raise ValueError(f"unknown reward {self.reward!r} "
                             f"(expected one of {REWARD_KINDS})")
        if self.obs_mode not in ("dataclass", "features"):
            raise ValueError(f"unknown obs_mode {self.obs_mode!r} "
                             "(expected 'dataclass' or 'features')")
        if self.update_mode not in UPDATE_MODES:
            raise ValueError(f"unknown update_mode {self.update_mode!r} "
                             f"(expected one of {UPDATE_MODES})")

    def resolved_episode_seeds(self) -> tuple[int, ...]:
        """The environment seeds one iteration's batch cycles over."""
        if self.episode_seeds is not None:
            return self.episode_seeds
        return tuple(range(self.seed, self.seed + self.episodes_per_iter))

    def resolved_eval_seed(self) -> int:
        """The environment seed of the deterministic eval episode."""
        if self.eval_seed is not None:
            return self.eval_seed
        return self.resolved_episode_seeds()[0]

    def to_dict(self) -> dict:
        """JSON-ready dict form."""
        return {
            "iters": self.iters,
            "episodes_per_iter": self.episodes_per_iter,
            "seed": self.seed,
            "hidden": list(self.hidden),
            "lr": self.lr,
            "lr_min": self.lr_min,
            "entropy_beta": self.entropy_beta,
            "entropy_beta_min": self.entropy_beta_min,
            "grad_clip": self.grad_clip,
            "reward": self.reward,
            "episode_seeds": (None if self.episode_seeds is None
                              else list(self.episode_seeds)),
            "eval_seed": self.eval_seed,
            "eval_every": self.eval_every,
            "max_steps": self.max_steps,
            "workers": self.workers,
            "obs_mode": self.obs_mode,
            "update_mode": self.update_mode,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainConfig":
        """Inverse of :meth:`to_dict`.

        Payloads written before the fast-path knobs existed resolve to
        ``update_mode="rows"`` — the semantics their runs actually had —
        so re-deriving a historical checkpoint from its recorded config
        reproduces the same bytes.  (``obs_mode`` needs no such pin:
        both observation paths are bit-identical.)  A recorded
        ``kernel`` or ``engine`` is dropped: both options are gone.
        Every ``kernel`` value ran bit-identical trajectories; a config
        that recorded the fixed-step engine re-runs on the event engine,
        the only one left.
        """
        kwargs = dict(payload)
        kwargs.pop("kernel", None)
        kwargs.pop("engine", None)
        kwargs.setdefault("update_mode", "rows")
        return cls(**kwargs)


@dataclass(frozen=True)
class IterationStats:
    """Telemetry of one training iteration (one training-curve point).

    ``eval_stp`` is the deterministic greedy-policy STP on the eval
    seed, present on evaluation iterations (every ``eval_every``-th and
    the last), ``None`` otherwise.  ``collect_s``/``update_s``/``eval_s``
    split the iteration's wall-clock across episode collection, the
    gradient update, and the eval episode (``0.0`` on non-eval
    iterations) — the observability needed to see where a training run
    actually spends its time.
    """

    iteration: int
    mean_return: float
    min_return: float
    max_return: float
    mean_entropy: float
    grad_norm: float
    lr: float
    entropy_beta: float
    eval_stp: float | None = None
    # Wall-clock telemetry: excluded from equality so the determinism
    # contract (same config -> same curve) stays about the math.
    collect_s: float = field(default=0.0, compare=False)
    update_s: float = field(default=0.0, compare=False)
    eval_s: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        """JSON-ready dict form."""
        return {
            "iteration": self.iteration,
            "mean_return": self.mean_return,
            "min_return": self.min_return,
            "max_return": self.max_return,
            "mean_entropy": self.mean_entropy,
            "grad_norm": self.grad_norm,
            "lr": self.lr,
            "entropy_beta": self.entropy_beta,
            "eval_stp": self.eval_stp,
            "collect_s": self.collect_s,
            "update_s": self.update_s,
            "eval_s": self.eval_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "IterationStats":
        """Inverse of :meth:`to_dict`."""
        return cls(**payload)


@dataclass(frozen=True)
class TrainResult:
    """Outcome of one training run (JSON round-trippable).

    The environment-layer sibling of
    :class:`~repro.env.EpisodeResult` for training: scenario, config,
    the full per-iteration curve, and which iterate the checkpoint
    kept (the best eval STP seen).
    """

    scenario: str
    config: TrainConfig
    curve: tuple[IterationStats, ...]
    best_eval_stp: float
    best_iteration: int
    final_eval_stp: float
    checkpoint: str | None = None

    def to_dict(self) -> dict:
        """JSON-ready dict form."""
        return {
            "scenario": self.scenario,
            "config": self.config.to_dict(),
            "curve": [stats.to_dict() for stats in self.curve],
            "best_eval_stp": self.best_eval_stp,
            "best_iteration": self.best_iteration,
            "final_eval_stp": self.final_eval_stp,
            "checkpoint": self.checkpoint,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainResult":
        """Inverse of :meth:`to_dict`."""
        kwargs = dict(payload)
        kwargs["config"] = TrainConfig.from_dict(kwargs["config"])
        kwargs["curve"] = tuple(IterationStats.from_dict(stats)
                                for stats in kwargs["curve"])
        return cls(**kwargs)

    def to_json(self, path: str | Path | None = None, *,
                indent: int = 2) -> str:
        """Serialise to JSON, optionally writing the document to a file."""
        text = json.dumps(self.to_dict(), indent=indent) + "\n"
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "TrainResult":
        """Load a result from a JSON string or file path."""
        if isinstance(source, Path):
            text = source.read_text()
        elif source.lstrip().startswith("{"):
            text = source
        else:
            text = Path(source).read_text()
        return cls.from_dict(json.loads(text))


class Adam:
    """Plain numpy Adam over the policy network's parameter list."""

    def __init__(self, model: PolicyNetwork, *, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [(np.zeros_like(w), np.zeros_like(b))
                   for w, b in zip(model.weights, model.biases)]
        self._v = [(np.zeros_like(w), np.zeros_like(b))
                   for w, b in zip(model.weights, model.biases)]

    def step(self, model: PolicyNetwork,
             grads: list[tuple[np.ndarray, np.ndarray]], lr: float) -> None:
        """Apply one Adam update in place."""
        self.t += 1
        correct1 = 1.0 - self.beta1 ** self.t
        correct2 = 1.0 - self.beta2 ** self.t
        for layer, (dw, db) in enumerate(grads):
            for slot, grad, param in ((0, dw, model.weights[layer]),
                                      (1, db, model.biases[layer])):
                m = self._m[layer][slot]
                v = self._v[layer][slot]
                m *= self.beta1
                m += (1.0 - self.beta1) * grad
                v *= self.beta2
                v += (1.0 - self.beta2) * grad * grad
                param -= lr * (m / correct1) / (np.sqrt(v / correct2)
                                                + self.eps)


class ReinforceLearner:
    """Policy-gradient trainer binding a scenario to a policy network."""

    def __init__(self, scenario, config: TrainConfig | None = None) -> None:
        self.spec = load_scenario(scenario)
        self.config = config or TrainConfig()
        self.model = PolicyNetwork(self.config.hidden, seed=self.config.seed,
                                   feature_config=FeatureConfig())
        self._adam = Adam(self.model)
        #: Per-episode-seed EMA of episode returns (the REINFORCE baseline).
        self._baselines: dict[int, float] = {}

    # ------------------------------------------------------------------
    # schedules
    # ------------------------------------------------------------------

    def _anneal(self, start: float, end: float, iteration: int) -> float:
        """Linear schedule from ``start`` (iter 0) to ``end`` (last)."""
        if self.config.iters == 1:
            return start
        frac = iteration / (self.config.iters - 1)
        return start + (end - start) * frac

    # ------------------------------------------------------------------
    # update
    # ------------------------------------------------------------------

    #: Decay of the per-seed return baseline EMA.
    BASELINE_DECAY = 0.8

    def _update(self, trajectories: list[Trajectory], lr: float,
                beta: float) -> tuple[float, float]:
        """One REINFORCE + entropy step; returns (entropy, |grad|).

        Each episode's advantage is its total return minus the EMA
        baseline of *its own environment seed* (zero the first time a
        seed is seen), shared by every decision of the episode and
        scaled by the batch standard deviation.  The hand-derived logit
        gradient is ``-adv * (onehot - p)`` for the policy term and
        ``beta * p * (log p + H)`` for the entropy term (gradient of
        ``-beta * H``; negative ``beta`` sharpens instead of exploring),
        averaged over every decision in the batch.
        """
        episode_advantages = []
        for trajectory in trajectories:
            baseline = self._baselines.get(trajectory.episode_seed)
            episode_advantages.append(
                0.0 if baseline is None
                else trajectory.total_reward - baseline)
            self._baselines[trajectory.episode_seed] = (
                trajectory.total_reward if baseline is None
                else (self.BASELINE_DECAY * baseline
                      + (1.0 - self.BASELINE_DECAY) * trajectory.total_reward))
        episode_advantages = np.asarray(episode_advantages, dtype=np.float64)
        scale = episode_advantages.std()
        if scale > 1e-8:
            episode_advantages = episode_advantages / scale

        grads = self.model.zero_grads()
        if self.config.update_mode == "gemm":
            mean_entropy, n_decisions = self._accumulate_gemm(
                trajectories, episode_advantages, beta, grads)
        else:
            mean_entropy, n_decisions = self._accumulate_rows(
                trajectories, episode_advantages, beta, grads)
        if not n_decisions:
            return 0.0, 0.0
        n_decisions = float(n_decisions)
        norm_sq = 0.0
        for dw, db in grads:
            dw /= n_decisions
            db /= n_decisions
            norm_sq += float((dw * dw).sum() + (db * db).sum())
        grad_norm = float(np.sqrt(norm_sq))
        if self.config.grad_clip and grad_norm > self.config.grad_clip:
            shrink = self.config.grad_clip / grad_norm
            for dw, db in grads:
                dw *= shrink
                db *= shrink
        self._adam.step(self.model, grads, lr)
        return mean_entropy, grad_norm

    def _accumulate_rows(self, trajectories: list[Trajectory],
                         episode_advantages: np.ndarray, beta: float,
                         grads) -> tuple[float, int]:
        """Row-at-a-time gradient accumulation (the bit-stability oracle)."""
        entropies = []
        n_decisions = 0
        for advantage, trajectory in zip(episode_advantages, trajectories):
            for features, choice in trajectory.decisions:
                logits, acts = self.model.forward_cached(features)
                logp = log_softmax(logits)
                probs = np.exp(logp)
                entropy = float(-(probs * logp).sum())
                entropies.append(entropy)
                dlogits = advantage * probs
                dlogits[choice] -= advantage
                dlogits += beta * probs * (logp + entropy)
                self.model.backward(acts, dlogits, grads)
                n_decisions += 1
        if not n_decisions:
            return 0.0, 0
        return float(np.mean(entropies)), n_decisions

    #: Row budget of one gemm chunk: large enough to amortize BLAS call
    #: overhead over dozens of decisions, small enough that the chunk's
    #: activations stay cache-resident instead of streaming through DRAM.
    GEMM_CHUNK_ROWS = 2048

    def _accumulate_gemm(self, trajectories: list[Trajectory],
                         episode_advantages: np.ndarray, beta: float,
                         grads) -> tuple[float, int]:
        """Batched-matrix gradient accumulation (the fast path).

        Packs runs of decisions into cache-sized chunks: one stacked
        forward per chunk, segment-wise log-softmax/entropy over the
        flat logit vector (``np.{maximum,add}.reduceat`` over decision
        offsets — no padding grid), and one batched backward — the same
        arithmetic as :meth:`_accumulate_rows` minus the per-decision
        Python loop.  Numerically equal to the rows oracle within float
        tolerance, not bitwise (BLAS matmuls reassociate across
        batching), which is why rows stays the reproducibility oracle.

        The chunk boundaries and every BLAS operand shape fix the bits,
        so they never change; what is free to change is where results
        land.  The stacked input, the activations and the deltas live in
        buffers sized once for the largest chunk and written through
        ``out=``; each episode's :class:`~repro.env.train.features.DecisionLog`
        fills its run of a chunk's stacked input straight from its row
        store, with the same values the policy scored; the tanh
        derivative ``1 - a*a`` overwrites its spent activation; the output
        layer's ``delta @ W.T`` has inner dimension 1, so it is the
        elementwise product ``delta * W[:, 0]`` — one rounding either way.
        """
        logs = [trajectory.decisions for trajectory in trajectories]
        counts = [len(log) for log in logs]
        n_decisions = sum(counts)
        if not n_decisions:
            return 0.0, 0
        # Decisions of episode ``e`` are ``firsts[e]:firsts[e + 1]``.
        firsts = np.cumsum([0, *counts]).tolist()
        lengths = np.concatenate([log.lengths() for log in logs])
        choices = np.concatenate([log.choices() for log in logs])
        advantages = np.repeat(episode_advantages, counts)

        chunks = []
        start = 0
        sizes = lengths.tolist()
        while start < n_decisions:
            stop = start
            rows = 0
            while stop < n_decisions and (
                    rows == 0
                    or rows + sizes[stop] <= self.GEMM_CHUNK_ROWS):
                rows += sizes[stop]
                stop += 1
            chunks.append((start, stop, rows))
            start = stop

        weights, biases = self.model.weights, self.model.biases
        max_rows = max(rows for _, _, rows in chunks)
        stack = np.empty((max_rows, weights[0].shape[0]))
        hidden = [np.empty((max_rows, w.shape[1])) for w in weights[:-1]]
        deltas = [np.empty((max_rows, w.shape[0])) for w in weights[1:]]
        logit_buf = np.empty(max_rows)
        entropy_sum = 0.0
        for start, stop, rows in chunks:
            chunk_lengths = lengths[start:stop]
            offsets = np.concatenate(([0], np.cumsum(chunk_lengths)[:-1]))
            adv = advantages[start:stop]
            choice_pos = offsets + choices[start:stop]

            filled = 0
            lo = start
            while lo < stop:
                episode = bisect.bisect_right(firsts, lo) - 1
                hi = min(stop, firsts[episode + 1])
                filled += logs[episode].fill(stack[filled:rows],
                                             lo - firsts[episode],
                                             hi - firsts[episode])
                lo = hi
            acts = [stack[:rows]]
            for w, b, buf in zip(weights[:-1], biases[:-1], hidden):
                z = np.matmul(acts[-1], w, out=buf[:rows])
                z += b
                np.tanh(z, out=z)
                acts.append(z)
            logits = np.matmul(acts[-1], weights[-1][:, 0],
                               out=logit_buf[:rows])
            logits += biases[-1][0]

            # Segment-wise stable log-softmax over the flat logit vector.
            rep = np.repeat(np.arange(stop - start), chunk_lengths)
            shifted = logits
            shifted -= np.maximum.reduceat(logits, offsets)[rep]
            probs = np.exp(shifted)
            seg_sum = np.add.reduceat(probs, offsets)
            probs /= seg_sum[rep]
            logp = shifted
            logp -= np.log(seg_sum)[rep]
            entropy = -np.add.reduceat(probs * logp, offsets)
            entropy_sum += float(entropy.sum())

            dlogits = adv[rep] * probs
            dlogits[choice_pos] -= adv
            entropy_term = logp
            entropy_term += entropy[rep]
            entropy_term *= probs
            entropy_term *= beta
            dlogits += entropy_term

            delta = dlogits[:, None]
            for layer in range(len(weights) - 1, -1, -1):
                a = acts[layer]
                dw, db = grads[layer]
                dw += a.T @ delta
                db += delta.sum(axis=0)
                if layer > 0:
                    next_delta = deltas[layer - 1][:rows]
                    if layer == len(weights) - 1:
                        np.multiply(delta, weights[layer][:, 0],
                                    out=next_delta)
                    else:
                        np.matmul(delta, weights[layer].T, out=next_delta)
                    np.multiply(a, a, out=a)
                    np.subtract(1.0, a, out=a)
                    next_delta *= a
                    delta = next_delta
        return entropy_sum / n_decisions, n_decisions

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def evaluate(self, seed: int | None = None) -> float:
        """Deterministic greedy-policy STP on the (eval) seed."""
        from repro.env.rollout import rollout

        policy = LearnedPolicy(model=self.model)
        result = rollout(self.spec, policy,
                         seed=(self.config.resolved_eval_seed()
                               if seed is None else seed),
                         reward=self.config.reward,
                         max_steps=self.config.max_steps,
                         obs_mode=self.config.obs_mode)
        return result.stp

    # ------------------------------------------------------------------
    # training loop
    # ------------------------------------------------------------------

    def train(self, *, checkpoint: str | Path | None = None,
              progress=None) -> TrainResult:
        """Run the full training loop; returns the curve telemetry.

        When ``checkpoint`` is given, the parameters with the best eval
        STP seen are written there (metadata carries scenario, config
        and provenance), and re-written at the end so the file always
        holds the best iterate of the *completed* run.  ``progress``
        is an optional callback receiving each :class:`IterationStats`.
        """
        config = self.config
        episode_seeds = config.resolved_episode_seeds()
        curve: list[IterationStats] = []
        best_stp = -np.inf
        best_iteration = -1
        best_params: tuple[list[np.ndarray], list[np.ndarray]] | None = None
        final_eval = -np.inf
        with EpisodeCollector(self.spec, reward=config.reward,
                              max_steps=config.max_steps,
                              workers=config.workers,
                              obs_mode=config.obs_mode) as collector:
            for iteration in range(config.iters):
                specs = [EpisodeSpec(
                    episode_seed=episode_seeds[e % len(episode_seeds)],
                    sample_seed=(config.seed, iteration, e))
                    for e in range(config.episodes_per_iter)]
                tick = time.perf_counter()
                trajectories = collector.collect(self.model, specs)
                collect_s = time.perf_counter() - tick
                lr = self._anneal(config.lr, config.lr_min, iteration)
                beta = self._anneal(config.entropy_beta,
                                    config.entropy_beta_min, iteration)
                tick = time.perf_counter()
                entropy, grad_norm = self._update(trajectories, lr, beta)
                update_s = time.perf_counter() - tick
                totals = [t.total_reward for t in trajectories]
                # Release the batch's decision matrices now: otherwise they
                # stay alive until the next collect() returns, and two
                # batches are held at once.
                del trajectories
                eval_stp = None
                eval_s = 0.0
                if (iteration % config.eval_every == 0
                        or iteration == config.iters - 1):
                    tick = time.perf_counter()
                    eval_stp = self.evaluate()
                    eval_s = time.perf_counter() - tick
                    final_eval = eval_stp
                    if eval_stp > best_stp:
                        best_stp = eval_stp
                        best_iteration = iteration
                        best_params = ([w.copy() for w in self.model.weights],
                                       [b.copy() for b in self.model.biases])
                stats = IterationStats(
                    iteration=iteration,
                    mean_return=float(np.mean(totals)),
                    min_return=float(np.min(totals)),
                    max_return=float(np.max(totals)),
                    mean_entropy=entropy,
                    grad_norm=grad_norm,
                    lr=lr,
                    entropy_beta=beta,
                    eval_stp=eval_stp,
                    collect_s=round(collect_s, 4),
                    update_s=round(update_s, 4),
                    eval_s=round(eval_s, 4),
                )
                curve.append(stats)
                if progress is not None:
                    progress(stats)

        if best_params is not None:
            self.model.weights = best_params[0]
            self.model.biases = best_params[1]
        checkpoint_path = None
        if checkpoint is not None:
            checkpoint_path = str(self.save(checkpoint,
                                            best_iteration=best_iteration,
                                            best_eval_stp=best_stp))
        return TrainResult(
            scenario=self.spec.name,
            config=config,
            curve=tuple(curve),
            best_eval_stp=float(best_stp),
            best_iteration=best_iteration,
            final_eval_stp=float(final_eval),
            checkpoint=checkpoint_path,
        )

    def save(self, path: str | Path, *, best_iteration: int = -1,
             best_eval_stp: float = float("nan")) -> Path:
        """Write the current (best) parameters as a checkpoint."""
        self.model.metadata = {
            "scenario": self.spec.name,
            "config": self.config.to_dict(),
            "best_iteration": best_iteration,
            "best_eval_stp": (None if not np.isfinite(best_eval_stp)
                              else float(best_eval_stp)),
        }
        return self.model.save(path)
