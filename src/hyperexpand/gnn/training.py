"""Deterministic training loop for Tree-NeighborsMatch.

Full-batch gradient descent by default over a fixed generated dataset.
All randomness (dataset, expander overlays, parameter init) derives from
cfg.seed through fixed stream constants, so a config reproduces its
metric history bit for bit on the same platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..construct import GeneratorConfig, k_regular_bipartite_batch
from ..graphs import matching_biadjacency
from ..rewire import LayerKind, layer_schedule
from ..rng import SplitMix64, derive_seed, derive_seeds
from .layers import HyperedgeMode, Workspace
from .model import (
    GinModel,
    accuracy,
    build_model,
    forward_batch,
    loss_and_gradients,
    named_parameters,
    softmax_cross_entropy,
)
from .treematch import MAX_DEPTH, make_dataset, tree_graph

DATA_STREAM = 0x64617461
EXPANDER_STREAM = 0x657870

# TrainConfig rejects a run whose estimated working set exceeds this many
# bytes, before anything is allocated (see _working_set_floats).
MAX_TRAIN_BYTES = 2 * 1024**3


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    depth: int = 2
    num_layers: int = 3
    hidden_dim: int = 32
    learning_rate: float = 0.01
    epochs: int = 500
    batch_size: int = 0  # 0 means full batch
    seed: int = 0
    rewire: bool = False
    expander_k: int = 3
    hyperedge_mode: HyperedgeMode = HyperedgeMode.SUMMATION
    dataset_size: int = 1000
    optimizer: str = "sgd"  # "sgd" | "adam"

    def __post_init__(self):
        if self.depth < 1 or self.num_layers < 1 or self.hidden_dim < 1:
            raise ValueError("depth, num_layers, hidden_dim must be >= 1")
        if self.epochs < 1 or self.dataset_size < 1:
            raise ValueError("epochs and dataset_size must be >= 1")
        if self.batch_size < 0:
            raise ValueError(f"batch_size must be >= 0 (0 means full batch), got {self.batch_size}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if self.expander_k < 1:
            raise ValueError("expander_k must be >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.depth > MAX_DEPTH:
            raise ValueError(f"depth must be in 1..{MAX_DEPTH}, got {self.depth}")
        per_sample, fixed = _working_set_floats(self)
        limit = MAX_TRAIN_BYTES // 8
        where = f"at depth {self.depth}, num_layers {self.num_layers}, hidden_dim {self.hidden_dim}"
        limit_text = f"the training memory limit MAX_TRAIN_BYTES = {MAX_TRAIN_BYTES} bytes"
        if fixed + per_sample > limit:
            raise ValueError(f"num_layers and hidden_dim exceed {limit_text} for a single sample {where}")
        most = (limit - fixed) // per_sample
        if self.dataset_size > most:
            raise ValueError(
                f"dataset_size must be <= {most} to stay within {limit_text} {where}, "
                f"got {self.dataset_size}"
            )


def _working_set_floats(cfg: TrainConfig) -> tuple[int, int]:
    """(float64s per dataset sample, float64s independent of the dataset).

    The final evaluation runs the whole dataset as one batch, so the
    training workspace grows with the dataset. Per sample, over its rows:
    the padded features and the first layer's z at the input width; the
    scratch arrays "a" and "c" at the wider of the input and hidden
    widths; 3 * num_layers + 2 hidden-width arrays; and the ReLU mask at
    one byte per hidden entry. Per sample besides: the head's input gradient,
    the logits, probabilities and their gradient, the target, and the
    n x n expander overlay. Fixed: the n x n tree adjacency that the
    batch shares and, in a rewired run, the zero-padded n x 2n slab of it
    that an ORIGINAL layer multiplies (one at a time), at most two GIN
    MLPs per layer, each weight with its gradient and optimizer arrays,
    and 2^14 floats for the run's smaller objects (tracemalloc put them
    at up to 9k floats, depth 1 learned).
    """
    n = 2 ** (cfg.depth + 1) - 1
    in_dim = 2 ** (cfg.depth + 1) + 1
    classes = 2**cfg.depth
    rows = 2 * n if cfg.rewire else n
    hidden, layers = cfg.hidden_dim, cfg.num_layers
    per_sample = rows * (2 * in_dim + 2 * max(in_dim, hidden) + hidden * (3 * layers + 2))
    per_sample += -(-rows * hidden // 8) + hidden + 3 * classes + 1
    fixed = n * n + 12 * layers * (in_dim + hidden) * hidden + 2**14
    if cfg.rewire:
        per_sample += n * n
        fixed += n * rows
    return per_sample, fixed


@dataclass
class TrainResult:
    config: TrainConfig
    losses: list[float]
    accuracies: list[float]
    final_loss: float
    final_accuracy: float
    model: GinModel = field(repr=False)


@dataclass
class _Batch:
    feats: np.ndarray  # (B, nodes, in_dim)
    targets: np.ndarray  # (B,)
    adj_orig: np.ndarray  # (n, n) tree adjacency, shared; covers the first n rows
    biadj: np.ndarray | None  # (B, n, n) or None


def _prepare_data(cfg: TrainConfig) -> tuple[_Batch, int, int]:
    """Returns (batch over the whole dataset, in_dim, num_classes).

    Set-up works on whole arrays: make_dataset draws every instance in
    one block, the features are one scatter, and a rewired run draws its
    per-instance overlays (instance i seeded derive_seed(root, i)) with
    one k_regular_bipartite_batch call and scatters them into the
    (B, n, n) biadjacency. Each array equals the per-instance
    construction bit for bit. Every run shares the n x n tree adjacency;
    in a rewired run it covers the first n of the 2n feature rows, and
    the ORIGINAL layers give the hyperedge rows zero aggregation.
    """
    rng = SplitMix64(derive_seed(cfg.seed, DATA_STREAM))
    data = make_dataset(cfg.depth, cfg.dataset_size, rng)
    tree = tree_graph(cfg.depth)
    feats = data.features(2 * tree.n if cfg.rewire else tree.n)
    in_dim, num_classes = feats.shape[2], 2**cfg.depth
    adj = tree.adjacency_matrix()
    if not cfg.rewire:
        return _Batch(feats, data.targets(), adj, None), in_dim, num_classes

    root = derive_seed(cfg.seed, EXPANDER_STREAM)
    gen = GeneratorConfig(n=tree.n, k=min(cfg.expander_k, tree.n))
    seeds = derive_seeds(np.uint64(root), np.arange(cfg.dataset_size, dtype=np.uint64))
    biadj = matching_biadjacency(k_regular_bipartite_batch(gen, seeds))
    return _Batch(feats, data.targets(), adj, biadj), in_dim, num_classes


def _slice(batch: _Batch, lo: int, hi: int) -> _Batch:
    return _Batch(
        feats=batch.feats[lo:hi],
        targets=batch.targets[lo:hi],
        adj_orig=batch.adj_orig,
        biadj=None if batch.biadj is None else batch.biadj[lo:hi],
    )


class _Optimizer:
    """SGD or Adam, updating parameters, moments and scratch in place.

    Each update runs the ops of the plain expressions in their order,
    e.g. Adam's m = b1 * m + (1 - b1) * g, with out= into arrays that
    persist across steps.
    """

    def __init__(self, cfg: TrainConfig, model: GinModel):
        self.lr = cfg.learning_rate
        self.kind = cfg.optimizer
        self.t = 0
        params = named_parameters(model)
        self.upd = {n: np.zeros_like(a) for n, a in params}
        if self.kind == "adam":
            self.m = {n: np.zeros_like(a) for n, a in params}
            self.v = {n: np.zeros_like(a) for n, a in params}
            self.den = {n: np.zeros_like(a) for n, a in params}

    def step(self, model: GinModel, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for name, arr in named_parameters(model):
            g, upd = grads[name], self.upd[name]
            if self.kind == "sgd":
                arr -= np.multiply(self.lr, g, out=upd)
                continue
            b1, b2, eps = 0.9, 0.999, 1e-8
            m, v, den = self.m[name], self.v[name], self.den[name]
            np.multiply(b1, m, out=m)
            m += np.multiply(1 - b1, g, out=upd)
            np.multiply(b2, v, out=v)
            np.multiply(1 - b2, g, out=upd)
            v += np.multiply(upd, g, out=upd)
            np.divide(m, 1 - b1**self.t, out=upd)  # mhat
            np.divide(v, 1 - b2**self.t, out=den)  # vhat
            np.multiply(self.lr, upd, out=upd)
            np.sqrt(den, out=den)
            np.add(den, eps, out=den)
            arr -= np.divide(upd, den, out=upd)


def _evaluate(model: GinModel, batch: _Batch, ws: Workspace) -> tuple[float, float]:
    """(loss, accuracy) of one forward pass; no gradients."""
    logits, _ = forward_batch(model, batch.feats, batch.adj_orig, batch.biadj, ws)
    loss, _, _ = softmax_cross_entropy(logits, batch.targets)
    return loss, accuracy(logits, batch.targets)


def train(cfg: TrainConfig) -> TrainResult:
    """Runs cfg.epochs passes; history rows are metrics before each update.

    final_loss/final_accuracy evaluate the trained parameters after the
    last update, with a forward pass only. Raises TrainingDiverged on a
    non-finite loss. The run's Workspace splits large batches across the
    CPUs in the affinity mask; its threads end before train returns or
    raises, and the results do not depend on how many there were.
    """
    data, in_dim, num_classes = _prepare_data(cfg)
    schedule = (
        layer_schedule(cfg.num_layers)
        if cfg.rewire
        else tuple(LayerKind.ORIGINAL for _ in range(cfg.num_layers))
    )
    model = build_model(
        in_dim,
        cfg.hidden_dim,
        num_classes,
        schedule,
        mode=cfg.hyperedge_mode,
        seed=cfg.seed,
    )
    opt = _Optimizer(cfg, model)
    size = data.feats.shape[0]
    step = size if cfg.batch_size <= 0 else min(cfg.batch_size, size)
    losses: list[float] = []
    accuracies: list[float] = []
    with Workspace() as ws:  # its split threads end with the block
        for epoch in range(1, cfg.epochs + 1):
            epoch_loss = 0.0
            epoch_hits = 0.0
            try:
                for lo in range(0, size, step):
                    part = _slice(data, lo, lo + step)
                    count = part.feats.shape[0]
                    loss, acc, grads = loss_and_gradients(
                        model, part.feats, part.targets, part.adj_orig, part.biadj, ws
                    )
                    epoch_loss += loss * count
                    epoch_hits += acc * count
                    opt.step(model, grads)
            except FloatingPointError:
                raise TrainingDiverged(epoch) from None
            loss = epoch_loss / size
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch)
            losses.append(loss)
            accuracies.append(epoch_hits / size)
        try:
            final_loss, final_acc = _evaluate(model, data, ws)
        except FloatingPointError:
            raise TrainingDiverged(cfg.epochs) from None
    return TrainResult(
        config=cfg,
        losses=losses,
        accuracies=accuracies,
        final_loss=final_loss,
        final_accuracy=final_acc,
        model=model,
    )
