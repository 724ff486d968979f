from __future__ import annotations

import numpy as np
import pytest

from hyperexpand.gnn.layers import HyperedgeMode
from hyperexpand.gnn.training import TrainConfig, TrainingDiverged, train
from hyperexpand.rewire import LayerKind


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


@pytest.mark.parametrize("variant", sorted(GOLDEN_HISTORIES))
def test_golden_loss_history(variant):
    extra, losses, final_loss = GOLDEN_HISTORIES[variant]
    res = train(TrainConfig(depth=2, epochs=10, dataset_size=64, seed=3, **extra))
    assert res.losses == pytest.approx(losses, rel=1e-12, abs=0)
    assert res.final_loss == pytest.approx(final_loss, rel=1e-12, abs=0)
