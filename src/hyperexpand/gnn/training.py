"""Deterministic training loop for Tree-NeighborsMatch.

Full-batch gradient descent by default over a fixed generated dataset.
All randomness (dataset, expander overlays, parameter init) derives from
cfg.seed through fixed stream constants, so a config reproduces its
metric history bit for bit on the same platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..construct import GeneratorConfig, k_regular_bipartite
from ..graphs import Graph
from ..rewire import LayerKind, layer_schedule
from ..rng import SplitMix64, derive_seed
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
    the padded features, two unpadded copies while they are built, three
    workspace arrays of the input width and 3 * num_layers + 3 of the
    hidden width; plus the n x n expander overlay. Fixed: at most two GIN
    MLPs per layer, each weight with its gradient and optimizer arrays.
    """
    n = 2 ** (cfg.depth + 1) - 1
    in_dim = 2 ** (cfg.depth + 1) + 1
    rows = 2 * n if cfg.rewire else n
    hidden, layers = cfg.hidden_dim, cfg.num_layers
    per_sample = in_dim * (4 * rows + 2 * n) + rows * hidden * (3 * layers + 3)
    if cfg.rewire:
        per_sample += n * n
    fixed = 12 * layers * (in_dim + hidden) * hidden
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
    adj_orig: np.ndarray  # (nodes, nodes), shared
    biadj: np.ndarray | None  # (B, n, n) or None


def _prepare_data(cfg: TrainConfig) -> tuple[_Batch, int, int]:
    """Returns (batch over the whole dataset, in_dim, num_classes)."""
    rng = SplitMix64(derive_seed(cfg.seed, DATA_STREAM))
    instances = make_dataset(cfg.depth, cfg.dataset_size, rng)
    tree: Graph = tree_graph(cfg.depth)
    in_dim = instances[0].feature_dim
    num_classes = instances[0].num_classes
    raw = np.stack([inst.encode_features() for inst in instances])
    targets = np.array([inst.target_label for inst in instances], dtype=np.int64)
    if not cfg.rewire:
        return _Batch(raw, targets, tree.adjacency_matrix(), None), in_dim, num_classes

    # One expander per instance, seeded from the instance index.
    root = derive_seed(cfg.seed, EXPANDER_STREAM)
    k = min(cfg.expander_k, tree.n)
    biadj = np.zeros((cfg.dataset_size, tree.n, tree.n))
    for i in range(cfg.dataset_size):
        gen = GeneratorConfig(n=tree.n, k=k, seed=derive_seed(root, i))
        biadj[i] = k_regular_bipartite(gen).biadjacency()
    feats = np.zeros((cfg.dataset_size, 2 * tree.n, in_dim))
    feats[:, : tree.n, :] = raw
    adj_aug = np.zeros((2 * tree.n, 2 * tree.n))
    adj_aug[: tree.n, : tree.n] = tree.adjacency_matrix()
    return _Batch(feats, targets, adj_aug, biadj), in_dim, num_classes


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
