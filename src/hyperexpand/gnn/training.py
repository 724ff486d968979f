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
from .layers import HyperedgeMode
from .model import GinModel, build_model, loss_and_gradients, named_parameters
from .treematch import make_dataset, tree_graph

DATA_STREAM = 0x64617461
EXPANDER_STREAM = 0x657870


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
    def __init__(self, cfg: TrainConfig, model: GinModel):
        self.lr = cfg.learning_rate
        self.kind = cfg.optimizer
        self.t = 0
        if self.kind == "adam":
            self.m = {n: np.zeros_like(a) for n, a in named_parameters(model)}
            self.v = {n: np.zeros_like(a) for n, a in named_parameters(model)}

    def step(self, model: GinModel, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for name, arr in named_parameters(model):
            g = grads[name]
            if self.kind == "sgd":
                arr -= self.lr * g
            else:
                b1, b2, eps = 0.9, 0.999, 1e-8
                self.m[name] = b1 * self.m[name] + (1 - b1) * g
                self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
                mhat = self.m[name] / (1 - b1**self.t)
                vhat = self.v[name] / (1 - b2**self.t)
                arr -= self.lr * mhat / (np.sqrt(vhat) + eps)


def _evaluate(model: GinModel, batch: _Batch) -> tuple[float, float]:
    loss, acc, _ = loss_and_gradients(model, batch.feats, batch.targets, batch.adj_orig, batch.biadj)
    return loss, acc


def train(cfg: TrainConfig) -> TrainResult:
    """Runs cfg.epochs passes; history rows are metrics before each update.

    final_loss/final_accuracy evaluate the trained parameters after the
    last update. Raises TrainingDiverged on a non-finite loss.
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
    for epoch in range(1, cfg.epochs + 1):
        epoch_loss = 0.0
        epoch_hits = 0.0
        try:
            for lo in range(0, size, step):
                part = _slice(data, lo, lo + step)
                count = part.feats.shape[0]
                loss, acc, grads = loss_and_gradients(
                    model, part.feats, part.targets, part.adj_orig, part.biadj
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
        final_loss, final_acc = _evaluate(model, data)
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
