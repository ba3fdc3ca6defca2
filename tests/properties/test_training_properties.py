"""Property-based tests of the determinism contract the Provenance
approach rests on: *any* pipeline configuration replays bit-exactly."""

import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.architectures import build_ffnn48
from repro.datasets.base import ArrayDataset
from repro.training.pipeline import PipelineConfig, TrainingPipeline

#: Valid trainable-layer subsets of the FFNN architecture (Sequential
#: indices of its Linear layers).
layer_subsets = st.one_of(
    st.none(),
    st.sets(st.sampled_from(["0", "2", "4", "6"]), min_size=1, max_size=4).map(
        lambda s: tuple(sorted(s))
    ),
)

pipeline_configs = st.builds(
    PipelineConfig,
    loss=st.just("mse"),
    optimizer=st.sampled_from(["sgd", "adam"]),
    learning_rate=st.floats(min_value=1e-4, max_value=0.1),
    momentum=st.floats(min_value=0.0, max_value=0.95),
    weight_decay=st.floats(min_value=0.0, max_value=0.01),
    epochs=st.integers(min_value=1, max_value=3),
    batch_size=st.integers(min_value=4, max_value=64),
    shuffle_seed=st.integers(min_value=0, max_value=1000),
    trainable_layers=layer_subsets,
)


def make_dataset(seed: int) -> ArrayDataset:
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(48, 4)).astype(np.float32)
    targets = rng.normal(size=(48, 1)).astype(np.float32)
    return ArrayDataset(inputs, targets)


#: A config whose training overflows (sgd at lr 0.1 on batches of 4 with
#: ``make_dataset(0)`` and model seed 0): NumPy warns as the run diverges.
DIVERGING = PipelineConfig(optimizer="sgd", learning_rate=0.1, batch_size=4, epochs=3)


def train(config: PipelineConfig, model, dataset) -> list:
    """Train ``model``; return the warnings the run emitted, in order.

    Recording them (rather than letting ``-W error`` raise the first)
    makes a diverging run part of the contract: its replay must warn
    the same way, at the same points.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        TrainingPipeline(config).train(model, dataset)
    return [(w.category, str(w.message), w.lineno) for w in caught]


def bit_identical(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape and bytes. Unlike ``np.array_equal`` this holds for
    a replay that diverged to NaN at the same positions, and it tells
    ``-0.0`` from ``0.0``."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPipelineDeterminismProperties:
    @given(
        config=pipeline_configs,
        data_seed=st.integers(min_value=0, max_value=100),
        model_seed=st.integers(min_value=0, max_value=100),
    )
    @example(config=DIVERGING, data_seed=0, model_seed=0)
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_any_config_replays_bit_exact(self, config, data_seed, model_seed):
        dataset = make_dataset(data_seed)
        model_a = build_ffnn48(rng=np.random.default_rng(model_seed))
        model_b = build_ffnn48(rng=np.random.default_rng(model_seed))
        assert train(config, model_a, dataset) == train(config, model_b, dataset)
        state_a, state_b = model_a.state_dict(), model_b.state_dict()
        assert all(bit_identical(state_a[k], state_b[k]) for k in state_a)

    @given(
        config=pipeline_configs,
        data_seed=st.integers(min_value=0, max_value=100),
    )
    @example(config=DIVERGING, data_seed=0)
    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_replay_survives_json_roundtrip(self, config, data_seed):
        dataset = make_dataset(data_seed)
        restored = PipelineConfig.from_json(config.to_json())
        model_a = build_ffnn48(rng=np.random.default_rng(0))
        model_b = build_ffnn48(rng=np.random.default_rng(0))
        assert train(config, model_a, dataset) == train(restored, model_b, dataset)
        state_a, state_b = model_a.state_dict(), model_b.state_dict()
        assert all(bit_identical(state_a[k], state_b[k]) for k in state_a)

    @given(
        config=pipeline_configs,
        data_seed=st.integers(min_value=0, max_value=100),
    )
    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_exactly_selected_layers_change(self, config, data_seed):
        dataset = make_dataset(data_seed)
        model = build_ffnn48(rng=np.random.default_rng(1))
        before = model.state_dict()
        pipeline = TrainingPipeline(config)
        trainable = set(pipeline.trainable_parameter_names(model))
        pipeline.train(model, dataset)
        after = model.state_dict()
        for name in before:
            changed = not np.array_equal(before[name], after[name])
            if name not in trainable:
                assert not changed, f"frozen layer {name} moved"
            # Trained layers *may* stay identical in degenerate configs
            # (e.g. zero gradients), so no assertion the other way.

    @given(
        seed_a=st.integers(min_value=0, max_value=50),
        seed_b=st.integers(min_value=51, max_value=100),
    )
    @settings(max_examples=20, deadline=None)
    def test_different_data_diverges(self, seed_a, seed_b):
        config = PipelineConfig(learning_rate=0.05, epochs=1, batch_size=16)
        model_a = build_ffnn48(rng=np.random.default_rng(0))
        model_b = build_ffnn48(rng=np.random.default_rng(0))
        TrainingPipeline(config).train(model_a, make_dataset(seed_a))
        TrainingPipeline(config).train(model_b, make_dataset(seed_b))
        state_a, state_b = model_a.state_dict(), model_b.state_dict()
        assert any(not np.array_equal(state_a[k], state_b[k]) for k in state_a)
