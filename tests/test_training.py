from __future__ import annotations

import concurrent.futures
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from hyperexpand import construct
from hyperexpand.gnn import layers
from hyperexpand.gnn.layers import HyperedgeMode, Workspace
from hyperexpand.gnn.model import build_model, forward_batch, loss_and_gradients, named_parameters
from hyperexpand.gnn.training import (
    MAX_TRAIN_BYTES,
    TrainConfig,
    TrainingDiverged,
    _prepare_data,
    _working_set_floats,
    train,
)
from hyperexpand.gnn.treematch import MAX_DEPTH
from hyperexpand.graphs import BipartiteExpander
from hyperexpand.rewire import LayerKind, layer_schedule

from helpers import prepare_data_by_instance


def tiny(**overrides):
    base = dict(
        depth=1,
        num_layers=2,
        hidden_dim=8,
        learning_rate=0.01,
        epochs=5,
        dataset_size=16,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            tiny(depth=0)
        with pytest.raises(ValueError):
            tiny(epochs=0)
        with pytest.raises(ValueError):
            tiny(learning_rate=-0.1)
        with pytest.raises(ValueError):
            tiny(optimizer="rmsprop")
        with pytest.raises(ValueError):
            tiny(expander_k=0)
        with pytest.raises(ValueError):
            tiny(dataset_size=0)


class TestMemoryLimit:
    """Configs whose estimated working set exceeds MAX_TRAIN_BYTES are
    ValueErrors naming the field and the limit, raised before any array
    exists (TrainConfig is checked before train allocates)."""

    def test_dataset_size_named(self):
        with pytest.raises(ValueError, match=f"dataset_size must be <= .*MAX_TRAIN_BYTES = {MAX_TRAIN_BYTES}"):
            TrainConfig(depth=8, rewire=True, dataset_size=100_000)

    def test_largest_accepted_dataset_is_the_bound(self):
        with pytest.raises(ValueError) as err:
            TrainConfig(depth=8, rewire=True, dataset_size=100_000)
        most = int(str(err.value).split("<= ")[1].split()[0])
        TrainConfig(depth=8, rewire=True, dataset_size=most)
        with pytest.raises(ValueError, match="dataset_size"):
            TrainConfig(depth=8, rewire=True, dataset_size=most + 1)

    @pytest.mark.parametrize("field", [{"hidden_dim": 10**6}, {"num_layers": 10**8}])
    def test_width_and_layers_named(self, field):
        with pytest.raises(ValueError, match="num_layers and hidden_dim exceed .*MAX_TRAIN_BYTES"):
            TrainConfig(**field)

    def test_depth_above_task_limit(self):
        with pytest.raises(ValueError, match=f"depth must be in 1..{MAX_DEPTH}"):
            TrainConfig(depth=MAX_DEPTH + 1)
        with pytest.raises(ValueError, match="depth"):
            TrainConfig(depth=10**9)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(depth=5, rewire=True, dataset_size=500),  # perfbench train-d5
            dict(depth=5, rewire=True, hyperedge_mode=HyperedgeMode.LEARNED, dataset_size=500),
            dict(depth=2, rewire=True, dataset_size=500),  # criterion 8, perfbench train-d2
            dict(depth=1, dataset_size=1000),  # criterion 8 part a
            dict(depth=2, rewire=True),  # CLI defaults with --rewire
            dict(depth=MAX_DEPTH, rewire=True, dataset_size=64),
        ],
    )
    def test_shipped_configs_accepted(self, kw):
        TrainConfig(**kw)

    @pytest.mark.parametrize("mode", list(HyperedgeMode))
    def test_depth5_rewired_maximum(self, mode):
        # 3283 depth-5 rewired samples fit in MAX_TRAIN_BYTES (the measured
        # peak grows by about 81.7k floats per sample)
        TrainConfig(depth=5, rewire=True, hyperedge_mode=mode, dataset_size=3283)
        for size in (3284, 5000):
            with pytest.raises(ValueError, match="dataset_size must be <= 3283 "):
                TrainConfig(depth=5, rewire=True, hyperedge_mode=mode, dataset_size=size)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(depth=2),
            dict(depth=2, rewire=True, hyperedge_mode=HyperedgeMode.LEARNED),
            dict(depth=5, rewire=True),
            dict(depth=5, rewire=True, hyperedge_mode=HyperedgeMode.LEARNED),
            dict(depth=6, rewire=True, hidden_dim=8, hyperedge_mode=HyperedgeMode.LEARNED),
            dict(depth=3, rewire=True, hidden_dim=64, num_layers=4, optimizer="adam", batch_size=16),
        ],
    )
    def test_measured_peak_within_estimate(self, kw):
        cfg = TrainConfig(epochs=1, dataset_size=48, **kw)
        per_sample, fixed = _working_set_floats(cfg)
        tracemalloc.start()
        try:
            train(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (per_sample * cfg.dataset_size + fixed)


class TestTrainingLoop:
    def test_metric_history_lengths(self):
        res = train(tiny(epochs=7))
        assert len(res.losses) == 7
        assert len(res.accuracies) == 7
        assert all(np.isfinite(v) for v in res.losses)
        assert all(0.0 <= a <= 1.0 for a in res.accuracies)

    def test_zero_learning_rate_keeps_loss_constant(self):
        res = train(tiny(learning_rate=0.0, epochs=4))
        assert len(set(res.losses)) == 1
        assert res.final_loss == res.losses[0]

    def test_bit_identical_determinism(self):
        a = train(tiny(epochs=6))
        b = train(tiny(epochs=6))
        assert a.losses == b.losses
        assert a.accuracies == b.accuracies
        assert a.final_loss == b.final_loss

    def test_seed_changes_history(self):
        a = train(tiny(epochs=3, seed=0))
        b = train(tiny(epochs=3, seed=1))
        assert a.losses != b.losses

    def test_loss_decreases_on_average(self):
        res = train(tiny(epochs=40))
        assert res.losses[-1] < res.losses[0]
        assert res.final_loss <= res.losses[-1] + 1e-9

    def test_minibatch_slicing_covers_dataset(self):
        res = train(tiny(epochs=3, batch_size=5, dataset_size=13))
        assert len(res.losses) == 3
        # mini-batch SGD differs from full batch but must stay finite
        assert all(np.isfinite(v) for v in res.losses)

    def test_batch_size_larger_than_dataset_is_full_batch(self):
        a = train(tiny(epochs=3, batch_size=0))
        b = train(tiny(epochs=3, batch_size=999))
        assert a.losses == b.losses

    def test_divergence_raises_with_epoch(self):
        # overflow on the way to the non-finite loss is the point here
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as err:
                train(tiny(learning_rate=1e12, epochs=50, rewire=True, depth=2))
        assert err.value.epoch >= 1

    def test_adam_runs(self):
        res = train(tiny(epochs=10, optimizer="adam", learning_rate=0.005))
        assert res.losses[-1] < res.losses[0]

    def test_history_rows_are_pre_update(self):
        # first history row is the untrained model's loss: rerunning with
        # zero lr must reproduce it
        trained = train(tiny(epochs=3))
        frozen = train(tiny(epochs=3, learning_rate=0.0))
        assert trained.losses[0] == frozen.losses[0]


class TestRewiredTraining:
    def test_rewired_runs_and_learns(self):
        res = train(tiny(epochs=30, rewire=True, num_layers=2))
        assert res.losses[-1] < res.losses[0]
        model = res.model
        kinds = [k for k in model.schedule]
        assert kinds == [LayerKind.ORIGINAL, LayerKind.EXPANDER]

    def test_plain_schedule_is_all_original(self):
        res = train(tiny(epochs=2))
        assert all(k is LayerKind.ORIGINAL for k in res.model.schedule)

    def test_learned_mode_runs(self):
        res = train(
            tiny(epochs=8, rewire=True, hyperedge_mode=HyperedgeMode.LEARNED)
        )
        assert np.isfinite(res.final_loss)

    def test_rewired_determinism(self):
        a = train(tiny(epochs=4, rewire=True))
        b = train(tiny(epochs=4, rewire=True))
        assert a.losses == b.losses

    def test_expander_k_clamped_for_tiny_trees(self):
        # depth-1 trees have 3 nodes; k=3 still works by clamping
        res = train(tiny(epochs=2, rewire=True, expander_k=5))
        assert np.isfinite(res.final_loss)


class TestPrepareData:
    """_prepare_data's whole-array set-up against the per-instance
    construction (prepare_data_by_instance in helpers.py)."""

    @pytest.mark.parametrize("rewire", [False, True])
    @pytest.mark.parametrize("depth,seed,k", [(2, 1, 3), (2, 8, 2), (5, 2, 3), (5, 5, 4)])
    def test_arrays_equal_per_instance(self, depth, seed, k, rewire):
        cfg = TrainConfig(depth=depth, dataset_size=150, seed=seed, rewire=rewire, expander_k=k)
        batch, in_dim, num_classes = _prepare_data(cfg)
        feats, targets, adj, biadj = prepare_data_by_instance(cfg)
        assert (in_dim, num_classes) == (feats.shape[2], 2**depth)
        for got, want in ((batch.feats, feats), (batch.targets, targets), (batch.adj_orig, adj)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        if rewire:
            assert batch.biadj.dtype == biadj.dtype and np.array_equal(batch.biadj, biadj)
        else:
            assert batch.biadj is None

    @pytest.mark.parametrize("rewire", [False, True])
    def test_no_per_instance_construction(self, rewire, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-instance call during _prepare_data")

        monkeypatch.setattr(construct, "k_regular_bipartite", refuse)
        monkeypatch.setattr(BipartiteExpander, "biadjacency", refuse)
        batch, _, _ = _prepare_data(TrainConfig(depth=2, dataset_size=50, rewire=rewire))
        assert batch.feats.shape[0] == 50


# Loss histories of depth-2 runs (10 epochs, 64 instances, seed 3) at
# otherwise default settings. Refactors of the GIN engine must keep the
# operand order, so these stay put to within float64 rounding.
GOLDEN_HISTORIES = {
    "plain": (
        {},
        [
            2.529726113383799,
            1.555555149768352,
            1.4012922359762026,
            1.3705908185090876,
            1.3561175890217454,
            1.3459669133881462,
            1.3377858952402624,
            1.3290248468394608,
            1.3206742561689095,
            1.314517974373342,
        ],
        1.3077989306531403,
    ),
    "summation": (
        {"rewire": True, "hyperedge_mode": HyperedgeMode.SUMMATION},
        [
            8.647234175811164,
            6.748000533982119,
            26.63469124902463,
            5.038513246754789,
            2.09544662077889,
            1.6500401182985458,
            1.5557248616221087,
            1.5918102346821907,
            1.5699818625959372,
            1.3685788980528626,
        ],
        1.3313996971688078,
    ),
    "learned": (
        {"rewire": True, "hyperedge_mode": HyperedgeMode.LEARNED},
        [
            3.574152499729757,
            5.114422139293186,
            2.0083973999087865,
            1.8059166956376642,
            1.403613807438703,
            1.3543600659653496,
            1.326851058616327,
            1.3098479422173972,
            1.2984413279919282,
            1.2886455852629117,
        ],
        1.2804796438882091,
    ),
}


# The same depth-2 task through minibatches of 20 (a ragged last batch of
# 4, then a full-batch final evaluation) and through Adam.
GOLDEN_HISTORIES.update({
    "minibatch-plain": (
        {"batch_size": 20},
        [
            1.9491715053712406,
            1.5592890788416753,
            1.416147073533453,
            1.3884105984426376,
            1.3759068065864528,
            1.3475487993251416,
            1.3538717854994604,
            1.3301394839390637,
            1.3224742375163288,
            1.3124568069035016,
        ],
        1.3368225528323352,
    ),
    "minibatch-summation": (
        {"batch_size": 20, "rewire": True, "hyperedge_mode": HyperedgeMode.SUMMATION},
        [
            14.160987075924838,
            18.12023315061799,
            2.3249507892790993,
            1.4330431840155813,
            1.385621976780745,
            1.3779255638791934,
            1.3542086403249285,
            1.3394210490026814,
            1.3406994217370314,
            1.3210034186924111,
        ],
        1.3132327608262944,
    ),
    "adam-minibatch-learned": (
        {
            "batch_size": 20,
            "rewire": True,
            "hyperedge_mode": HyperedgeMode.LEARNED,
            "optimizer": "adam",
            "learning_rate": 0.005,
        },
        [
            2.9523596557326814,
            1.7085408083369484,
            1.3334737063214177,
            1.329174181611986,
            1.3323287347071016,
            1.2824091058291511,
            1.285895977742759,
            1.1703380773809182,
            1.1069222001516088,
            1.0213505873459297,
        ],
        0.9601344317040146,
    ),
    "adam-plain": (
        {"optimizer": "adam", "learning_rate": 0.005},
        [
            2.529726113383799,
            1.620100304506968,
            1.5582967719355847,
            1.3660386381595129,
            1.381979913378052,
            1.3143435515418984,
            1.2633152867033774,
            1.2592602093841982,
            1.2255477170663607,
            1.2173417699055502,
        ],
        1.217388252837801,
    ),
})


@pytest.mark.parametrize("variant", sorted(GOLDEN_HISTORIES))
def test_golden_loss_history(variant):
    extra, losses, final_loss = GOLDEN_HISTORIES[variant]
    res = train(TrainConfig(depth=2, epochs=10, dataset_size=64, seed=3, **extra))
    assert res.losses == pytest.approx(losses, rel=1e-12, abs=0)
    assert res.final_loss == pytest.approx(final_loss, rel=1e-12, abs=0)


class TestWorkspace:
    """One workspace per run: steps after the first allocate no activation,
    and a pass through a used workspace computes what fresh arrays do."""

    def setup_run(self, mode=HyperedgeMode.SUMMATION, size=256):
        cfg = TrainConfig(depth=2, dataset_size=size, seed=5, rewire=True, hyperedge_mode=mode)
        data, in_dim, num_classes = _prepare_data(cfg)
        model = build_model(in_dim, cfg.hidden_dim, num_classes, layer_schedule(3), mode=mode, seed=5)
        return cfg, data, model

    @pytest.mark.parametrize("mode", list(HyperedgeMode))
    def test_later_steps_allocate_no_activation(self, mode):
        cfg, data, model = self.setup_run(mode)
        batch, rows = data.feats.shape[:2]
        activation = batch * rows * cfg.hidden_dim * 8
        args = (model, data.feats, data.targets, data.adj_orig, data.biadj)
        ws = Workspace()
        loss_and_gradients(*args, ws)  # warm-up: the workspace fills
        tracemalloc.start()
        try:
            loss_and_gradients(*args, ws)
            # a ragged minibatch reuses the full batch's buffers
            loss_and_gradients(model, data.feats[:50], data.targets[:50], data.adj_orig, data.biadj[:50], ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < activation

    @pytest.mark.parametrize("mode", list(HyperedgeMode))
    def test_passes_through_one_workspace_match_fresh_calls(self, mode):
        _, data, model = self.setup_run(mode, size=40)
        halves = [(data.feats[:25], data.biadj[:25]), (data.feats[25:], data.biadj[25:])]
        ws = Workspace()
        for feats, biadj in halves + halves:
            logits, _ = forward_batch(model, feats, data.adj_orig, biadj, ws)
            fresh, _ = forward_batch(model, feats, data.adj_orig, biadj)
            assert np.array_equal(logits, fresh)
        for lo, hi in ((0, 25), (25, 40), (0, 40)):
            args = (model, data.feats[lo:hi], data.targets[lo:hi], data.adj_orig, data.biadj[lo:hi])
            loss, acc, grads = loss_and_gradients(*args, ws)
            want_loss, want_acc, want = loss_and_gradients(*args)
            assert (loss, acc) == (want_loss, want_acc)
            assert all(np.array_equal(grads[name], want[name]) for name in want)

    def test_outputs_live_until_the_next_pass(self):
        _, data, model = self.setup_run(size=8)
        ws = Workspace()
        _, first = forward_batch(model, data.feats, data.adj_orig, data.biadj, ws)
        _, second = forward_batch(model, data.feats[:4], data.adj_orig, data.biadj[:4], ws)
        # the second pass wrote into the first pass's buffers
        assert np.shares_memory(first[1], second[1])


@pytest.fixture
def split_everything(monkeypatch):
    """Every kernel splits, over three threads whatever the CPU count."""
    monkeypatch.setattr(layers, "_SPLIT_MIN_FLOATS", 0)
    monkeypatch.setattr(layers, "_WORKERS", 3)


class TestBatchSplit:
    """An entered workspace splits each kernel's per-sample ops across
    threads; the numbers must be exactly those of one unsplit pass."""

    # depth 3 with hidden 8: layer 0 reads 17 input features, so scratch
    # "c" holds d a1 (width 8) and then dz * h_self (width 17)
    @pytest.mark.parametrize("variant", ["plain", "summation", "learned"])
    def test_pass_matches_unsplit(self, variant, split_everything):
        extra = {} if variant == "plain" else {"rewire": True, "hyperedge_mode": HyperedgeMode(variant)}
        cfg = TrainConfig(depth=3, hidden_dim=8, dataset_size=23, seed=2, **extra)
        data, in_dim, num_classes = _prepare_data(cfg)
        schedule = layer_schedule(3) if cfg.rewire else (LayerKind.ORIGINAL,) * 3
        model = build_model(in_dim, 8, num_classes, schedule, mode=cfg.hyperedge_mode, seed=2)
        assert in_dim > cfg.hidden_dim
        args = (model, data.feats, data.targets, data.adj_orig, data.biadj)
        want_logits, _ = forward_batch(model, data.feats, data.adj_orig, data.biadj)
        want_loss, want_acc, want = loss_and_gradients(*args)
        with Workspace() as ws:
            for _ in range(2):  # the second pass reuses the first one's buffers
                logits, _ = forward_batch(model, data.feats, data.adj_orig, data.biadj, ws)
                assert np.array_equal(logits, want_logits)
                loss, acc, grads = loss_and_gradients(*args, ws)
                assert (loss, acc) == (want_loss, want_acc)
                assert grads.keys() == want.keys()
                assert all(np.array_equal(grads[name], want[name]) for name in want)

    @pytest.mark.parametrize("variant", ["plain", "summation", "learned"])
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_training_matches_unsplit(self, variant, optimizer, monkeypatch):
        extra = {} if variant == "plain" else {"rewire": True, "hyperedge_mode": HyperedgeMode(variant)}
        if optimizer == "adam":  # minibatches of 20 over 50 samples: a ragged last batch of 10
            extra.update(optimizer="adam", learning_rate=0.005, batch_size=20)
        cfg = TrainConfig(depth=3, hidden_dim=8, epochs=3, dataset_size=50, seed=4, **extra)
        want = train(cfg)
        monkeypatch.setattr(layers, "_SPLIT_MIN_FLOATS", 0)
        monkeypatch.setattr(layers, "_WORKERS", 2)
        got = train(cfg)
        assert got.losses == want.losses and got.accuracies == want.accuracies
        assert (got.final_loss, got.final_accuracy) == (want.final_loss, want.final_accuracy)
        params = zip(named_parameters(got.model), named_parameters(want.model))
        assert all(np.array_equal(a, b) for (_, a), (_, b) in params)

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        monkeypatch.setattr(layers, "_SPLIT_MIN_FLOATS", 0)
        cfg = TrainConfig(depth=2, hidden_dim=4, epochs=2, dataset_size=30, seed=6, batch_size=7,
                          rewire=True, hyperedge_mode=HyperedgeMode.LEARNED)
        want = train(cfg)
        monkeypatch.setattr(layers, "_WORKERS", 4 * layers._WORKERS + 1)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: results.append(train(cfg)), daemon=True)
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), "split training did not finish within 120 s"
        assert results[0].losses == want.losses and results[0].final_loss == want.final_loss

    def test_worker_error_reaches_the_caller(self, split_everything):
        def run(s):
            if s.start > 0:
                raise FloatingPointError("in a helper")

        with Workspace() as ws:
            with pytest.raises(FloatingPointError, match="in a helper"):
                ws.split(run, np.zeros((6, 1, 1)))
            ws.split(lambda s: None, np.zeros((6, 1, 1)))  # the helpers still serve

    def test_errstate_holds_in_the_helpers(self, split_everything):
        def run(s):
            if s.start > 0:  # only the helpers divide
                np.divide(np.ones(2), 0.0)

        with Workspace() as ws, np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError):
                ws.split(run, np.zeros((6, 1, 1)))


@pytest.mark.usefixtures("split_everything")
class TestSplitThreads:
    """The split threads live exactly as long as the training run."""

    def test_entered_workspace_owns_its_threads(self):
        before = threading.active_count()
        assert Workspace().take("x", (2,)).shape == (2,) and threading.active_count() == before
        with Workspace() as ws:
            for _ in range(3):  # the pool starts its threads on demand
                ws.split(lambda s: None, np.zeros((6, 1, 1)))
                assert before < threading.active_count() <= before + layers._WORKERS - 1
        assert threading.active_count() == before

    def test_no_thread_outlives_train(self):
        before = threading.active_count()
        train(tiny(rewire=True, epochs=2))
        assert threading.active_count() == before

    def test_no_thread_outlives_divergence(self):
        before = threading.active_count()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged):
                train(tiny(learning_rate=1e6, epochs=50))
        assert threading.active_count() == before

    def test_unentered_workspace_runs_inline(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread pool was made")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        cfg = tiny(rewire=True)
        data, in_dim, num_classes = _prepare_data(cfg)
        model = build_model(in_dim, 8, num_classes, layer_schedule(2), seed=0)
        loss_and_gradients(model, data.feats, data.targets, data.adj_orig, data.biadj)
        loss_and_gradients(model, data.feats, data.targets, data.adj_orig, data.biadj, Workspace())
