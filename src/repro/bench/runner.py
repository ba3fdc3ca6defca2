"""Experiment driver: one entry point per paper table/figure + ablations.

Every experiment function takes an :class:`ExperimentSettings`, runs the
paper's scenario against all relevant approaches, and returns an
:class:`ExperimentResult` holding both the machine-readable data (used by
the test suite) and a formatted report in the shape the paper presents
(used by the ``repro-bench`` CLI and EXPERIMENTS.md).  Every timed point
goes through :func:`repro.bench.metrics._measure`, and a TTS/TTR point
is the median of ``runs`` samples (the paper reports medians of 5).

Scale: the paper uses 5000 models; storage per model is exact and
TTS/TTR scale linearly in the set size, so the default here is a faster
``num_models=500`` with ``--full-scale`` switching to the paper's 5000.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.bench.metrics import Measurement, _measure, measure_recover, measure_save, median
from repro.bench.report import format_series, format_table
from repro.config import ArchiveConfig
from repro.core.manager import MultiModelManager
from repro.core.recommender import ApproachRecommender, ScenarioProfile
from repro.battery.datagen import CellDataConfig
from repro.datasets.synthetic_cifar import cifar_dataset_ref
from repro.storage.hardware import (
    ARCHIVE_PROFILE,
    LOCAL_PROFILE,
    M1_PROFILE,
    SERVER_PROFILE,
    HardwareProfile,
)
from repro.training.pipeline import PipelineConfig
from repro.workloads.scenario import MultiModelScenario, ScenarioConfig, UseCase

#: Approach order used in all reports (matches the paper's legends).
APPROACH_NAMES = ("mmlib-base", "baseline", "update", "provenance")

_PROFILES = {
    "server": SERVER_PROFILE,
    "m1": M1_PROFILE,
    "local": LOCAL_PROFILE,
    "archive": ARCHIVE_PROFILE,
}


@dataclass(frozen=True)
class ExperimentSettings:
    """Shared knobs of all experiments."""

    num_models: int = 500
    cycles: int = 3
    runs: int = 3
    profile_name: str = "server"
    architecture: str = "FFNN-48"
    full_fraction: float = 0.05
    partial_fraction: float = 0.05
    seed: int = 0

    @property
    def profile(self) -> HardwareProfile:
        return _PROFILES[self.profile_name]

    def scenario_config(self, **overrides) -> ScenarioConfig:
        params = dict(
            num_models=self.num_models,
            architecture=self.architecture,
            num_update_cycles=self.cycles,
            full_update_fraction=self.full_fraction,
            partial_update_fraction=self.partial_fraction,
            seed=self.seed,
            train_updates=False,
        )
        params.update(overrides)
        return ScenarioConfig(**params)


@dataclass
class ExperimentResult:
    """Report text plus the underlying numbers."""

    experiment: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


# ---------------------------------------------------------------------------
# scenario execution helpers
# ---------------------------------------------------------------------------

def _generate_cases(config: ScenarioConfig) -> list[UseCase]:
    return list(MultiModelScenario(config).use_cases())


def _save_all(
    approach: str,
    cases: list[UseCase],
    profile: HardwareProfile,
    dataset_cache: bool = True,
    **approach_kwargs,
) -> tuple[MultiModelManager, list[str], list[Measurement]]:
    """Save every use case with a fresh manager; returns ids + measurements.

    ``dataset_cache=False`` disables the dataset registry's cache so a
    provenance replay pays the full online data preparation every time —
    the paper's TTR explicitly includes that cost (§4.4).
    """
    context = None
    if not dataset_cache:
        from repro.core.approach import SaveContext
        from repro.datasets.battery import resolve_battery_ref
        from repro.datasets.registry import DatasetRegistry
        from repro.datasets.synthetic_cifar import resolve_cifar_ref
        from repro.storage.document_store import DocumentStore
        from repro.storage.file_store import FileStore

        registry = DatasetRegistry(cache_size=0)
        registry.register("battery-cell", resolve_battery_ref)
        registry.register("synthetic-cifar", resolve_cifar_ref)
        context = SaveContext(
            file_store=FileStore(profile=profile),
            document_store=DocumentStore(profile=profile),
            dataset_registry=registry,
        )
    manager = MultiModelManager.with_approach(
        approach, ArchiveConfig(profile=profile), context=context, **approach_kwargs
    )
    set_ids: list[str] = []
    measurements: list[Measurement] = []
    for case in cases:
        base_id = set_ids[case.base_index] if case.base_index is not None else None
        set_id, measurement = measure_save(
            manager, case.model_set, base_set_id=base_id, update_info=case.update_info
        )
        set_ids.append(set_id)
        measurements.append(measurement)
    return manager, set_ids, measurements


def _save_runs(
    approach: str,
    cases: list[UseCase],
    profile: HardwareProfile,
    runs: int,
    **approach_kwargs,
) -> "tuple[MultiModelManager, list[str], list[list[Measurement]]]":
    """``runs`` independent save sequences: the last sequence's manager and
    set ids, and each use case's ``runs`` save measurements."""
    samples: list[list[Measurement]] = [[] for _case in cases]
    for _run in range(runs):
        manager, set_ids, measurements = _save_all(
            approach, cases, profile, **approach_kwargs
        )
        for case_samples, measurement in zip(samples, measurements):
            case_samples.append(measurement)
    return manager, set_ids, samples


def _recoveries(
    approach: str,
    cases: list[UseCase],
    profile: HardwareProfile,
    runs: int,
    dataset_cache: bool = True,
    **approach_kwargs,
) -> "list[list[Measurement]]":
    """``runs`` recovery measurements of each use case's saved set.

    The rounds are interleaved — every set once, ``runs`` times over — so
    a host that changes speed mid-measurement slows one sample of every
    set, not every sample of one set: ratios between use cases survive.
    """
    manager, set_ids, _saves = _save_all(
        approach, cases, profile, dataset_cache=dataset_cache, **approach_kwargs
    )
    samples: list[list[Measurement]] = [[] for _set_id in set_ids]
    for _run in range(runs):
        for measurements, set_id in zip(samples, set_ids):
            measurements.append(measure_recover(manager, set_id)[1])
    return samples


def _final_ttr(manager: MultiModelManager, set_id: str, runs: int):
    """Median TTR of ``runs`` recoveries of one set, and the recovered set."""
    recovered, times = None, []
    for _run in range(runs):
        recovered, measurement = measure_recover(manager, set_id)
        times.append(measurement.total_s)
    return median(times), recovered


def _medians(samples: "list[list[Measurement]]", part: str = "total_s") -> list[float]:
    """Median of one :class:`Measurement` field per use case."""
    return [
        median([getattr(measurement, part) for measurement in measurements])
        for measurements in samples
    ]


def _median_ttr(
    approach: str,
    cases: list[UseCase],
    profile: HardwareProfile,
    runs: int,
    dataset_cache: bool = True,
    **approach_kwargs,
) -> list[float]:
    """Median TTR per use case over ``runs`` recoveries of each saved set."""
    return _medians(
        _recoveries(approach, cases, profile, runs, dataset_cache, **approach_kwargs)
    )


def _use_case_names(cases: list[UseCase]) -> list[str]:
    return [case.name for case in cases]


# ---------------------------------------------------------------------------
# E1 — Figure 3: storage consumption per use case
# ---------------------------------------------------------------------------

def figure3(settings: ExperimentSettings) -> ExperimentResult:
    """Storage consumption (MB) per use case for all four approaches."""
    cases = _generate_cases(settings.scenario_config())
    series: dict[str, list[float]] = {}
    for approach in APPROACH_NAMES:
        _manager, _ids, measurements = _save_all(approach, cases, settings.profile)
        series[approach] = [m.bytes_written / 1e6 for m in measurements]
    text = format_series(
        f"Figure 3 — storage consumption per use case "
        f"({settings.num_models} x {settings.architecture})",
        _use_case_names(cases),
        series,
        unit="MB",
    )
    return ExperimentResult("figure3", text, {"series": series})


# ---------------------------------------------------------------------------
# E2 — update-rate sweep (10/20/30%), §4.2
# ---------------------------------------------------------------------------

def update_rates(settings: ExperimentSettings) -> ExperimentResult:
    """U3 storage consumption per approach at 10/20/30% update rates."""
    rows = []
    data: dict[str, dict[str, float]] = {}
    for rate in (0.10, 0.20, 0.30):
        config = settings.scenario_config(
            full_update_fraction=rate / 2, partial_update_fraction=rate / 2
        )
        cases = _generate_cases(config)
        per_approach: dict[str, float] = {}
        for approach in APPROACH_NAMES:
            _manager, _ids, measurements = _save_all(approach, cases, settings.profile)
            # Mean storage across the U3 iterations (they are near-identical).
            u3_bytes = [m.bytes_written for m in measurements[1:]]
            per_approach[approach] = sum(u3_bytes) / len(u3_bytes) / 1e6
        data[f"{int(rate * 100)}%"] = per_approach
        rows.append([f"{int(rate * 100)}%", *per_approach.values()])
    text = format_table(
        f"Update-rate sweep — mean U3 storage ({settings.num_models} x "
        f"{settings.architecture}) [MB]",
        ["update rate", *APPROACH_NAMES],
        rows,
    )
    return ExperimentResult("update_rates", text, {"per_rate": data})


# ---------------------------------------------------------------------------
# E3 — model size: FFNN-48 vs FFNN-69, §4.2
# ---------------------------------------------------------------------------

def model_size(settings: ExperimentSettings) -> ExperimentResult:
    """Storage scaling when switching FFNN-48 -> FFNN-69 (2.02x params)."""
    data: dict[str, dict[str, list[float]]] = {}
    for architecture in ("FFNN-48", "FFNN-69"):
        cases = _generate_cases(settings.scenario_config(architecture=architecture))
        data[architecture] = {
            approach: [
                m.bytes_written / 1e6
                for m in _save_all(approach, cases, settings.profile)[2]
            ]
            for approach in APPROACH_NAMES
        }
    # The paper's scaling claims (§4.2: MMlib-base x1.7, Baseline/Update
    # ~x2.0, Provenance unaffected) concern the per-update-cycle storage,
    # so compare the mean over the U3 iterations.
    rows = []
    ratios: dict[str, float] = {}
    for approach in APPROACH_NAMES:
        small_u3 = data["FFNN-48"][approach][1:]
        large_u3 = data["FFNN-69"][approach][1:]
        small = sum(small_u3) / len(small_u3)
        large = sum(large_u3) / len(large_u3)
        ratios[approach] = large / small
        rows.append([approach, small, large, ratios[approach]])
    text = format_table(
        f"Model-size experiment ({settings.num_models} models, mean U3 "
        "storage) [MB]",
        ["approach", "FFNN-48", "FFNN-69", "ratio"],
        rows,
    )
    return ExperimentResult("model_size", text, {"data": data, "ratios": ratios})


# ---------------------------------------------------------------------------
# E4 — CIFAR domain, §4.2
# ---------------------------------------------------------------------------

def cifar(settings: ExperimentSettings) -> ExperimentResult:
    """Storage per use case for the CIFAR CNN (different domain, 6,882 params)."""
    config = settings.scenario_config(
        architecture="CIFAR",
        partial_layers=("10",),  # the CNN's first Linear layer
        dataset_ref_factory=lambda index, cycle: cifar_dataset_ref(
            num_samples=256, seed=index * 100 + cycle
        ),
    )
    cases = _generate_cases(config)
    series = {
        approach: [
            m.bytes_written / 1e6
            for m in _save_all(approach, cases, settings.profile)[2]
        ]
        for approach in APPROACH_NAMES
    }
    text = format_series(
        f"CIFAR experiment — storage per use case ({settings.num_models} x CIFAR)",
        _use_case_names(cases),
        series,
        unit="MB",
    )
    return ExperimentResult("cifar", text, {"series": series})


# ---------------------------------------------------------------------------
# E5 — Figure 4: median time-to-save per use case (both setups)
# ---------------------------------------------------------------------------

def figure4(settings: ExperimentSettings) -> ExperimentResult:
    """Median TTS per use case, for the configured hardware profile."""
    cases = _generate_cases(settings.scenario_config())
    series = {
        approach: _medians(_save_runs(approach, cases, settings.profile, settings.runs)[2])
        for approach in APPROACH_NAMES
    }
    text = format_series(
        f"Figure 4 ({settings.profile_name} setup) — median TTS per use case "
        f"({settings.num_models} x {settings.architecture}, "
        f"{settings.runs} runs)",
        _use_case_names(cases),
        series,
        unit="s",
        value_format="{:.4f}",
    )
    return ExperimentResult("figure4", text, {"series": series})


# ---------------------------------------------------------------------------
# E6 — Figure 5: median time-to-recover per use case (both setups)
# ---------------------------------------------------------------------------

def figure5(settings: ExperimentSettings) -> ExperimentResult:
    """Median TTR per use case.

    Like the paper (§4.4), the Provenance series is measured on a reduced
    scenario — one trained model with reduced data per U3 iteration —
    because full retraining of every updated model is compute-bound; the
    staircase shape is unaffected.
    """
    cases = _generate_cases(settings.scenario_config())
    series: dict[str, list[float]] = {}
    #: The simulated (store) part of each median: host-independent.
    simulated: dict[str, list[float]] = {}
    for approach in ("mmlib-base", "baseline", "update"):
        # The figure reproduces the paper's recursive recovery, whose cost
        # grows along the delta chain (the staircase).  The engine's
        # delta-chain compaction flattens exactly this staircase; the
        # scaling benchmark quantifies that improvement separately.
        kwargs = {"recovery": "replay"} if approach == "update" else {}
        samples = _recoveries(approach, cases, settings.profile, settings.runs, **kwargs)
        series[approach] = _medians(samples)
        simulated[approach] = _medians(samples, "simulated_s")

    # Reduced provenance scenario, mirroring the paper's methodology.
    prov_config = ScenarioConfig(
        num_models=max(2, settings.num_models // 100),
        architecture=settings.architecture,
        num_update_cycles=settings.cycles,
        full_update_fraction=0.0,
        partial_update_fraction=0.0,
        seed=settings.seed,
        train_updates=True,
        data=CellDataConfig(samples_per_cell=256, cycle_duration_s=256),
    )
    # Exactly one full update per cycle.
    prov_config = replace(
        prov_config, full_update_fraction=1.0 / prov_config.num_models
    )
    prov_cases = _generate_cases(prov_config)
    series["provenance"] = _median_ttr(
        "provenance",
        prov_cases,
        settings.profile,
        max(1, settings.runs - 1),
        dataset_cache=False,
    )
    text = format_series(
        f"Figure 5 ({settings.profile_name} setup) — median TTR per use case "
        f"({settings.num_models} x {settings.architecture}; provenance: "
        f"reduced scenario per §4.4)",
        _use_case_names(cases),
        series,
        unit="s",
        value_format="{:.4f}",
    )
    return ExperimentResult("figure5", text, {"series": series, "simulated": simulated})


# ---------------------------------------------------------------------------
# E7 — provenance TTR staircase with real training, §4.4
# ---------------------------------------------------------------------------

def provenance_training(settings: ExperimentSettings) -> ExperimentResult:
    """TTR of Provenance across U3 iterations with genuine retraining.

    The paper reports ~6 h / ~12 h / ~18 h for U3-1/2/3 with a large
    training configuration; the claim to reproduce is the 1:2:3 staircase
    (each recovery replays every iteration since the last full save).
    """
    config = ScenarioConfig(
        num_models=3,
        architecture=settings.architecture,
        num_update_cycles=settings.cycles,
        full_update_fraction=1.0 / 3.0,
        partial_update_fraction=0.0,
        seed=settings.seed,
        train_updates=True,
        pipeline=PipelineConfig(
            loss="mse",
            optimizer="sgd",
            learning_rate=0.01,
            momentum=0.9,
            epochs=5,
            batch_size=64,
        ),
        data=CellDataConfig(samples_per_cell=512, cycle_duration_s=512),
    )
    cases = _generate_cases(config)
    ttr = _median_ttr(
        "provenance",
        cases,
        settings.profile,
        max(1, settings.runs - 1),
        dataset_cache=False,
    )
    base = ttr[1] if len(ttr) > 1 and ttr[1] > 0 else 1.0
    rows = [
        [case.name, ttr[index], ttr[index] / base]
        for index, case in enumerate(cases)
    ]
    text = format_table(
        "Provenance TTR staircase with real retraining "
        "(ratios vs. U3-1; paper: 6h/12h/18h = 1:2:3)",
        ["use case", "TTR s", "ratio vs U3-1"],
        rows,
    )
    return ExperimentResult("provenance_training", text, {"ttr": ttr})


# ---------------------------------------------------------------------------
# E8 — storage breakdown, §4.2 numbers
# ---------------------------------------------------------------------------

def breakdown(settings: ExperimentSettings) -> ExperimentResult:
    """Byte-level breakdown per category (params / metadata / hash info...).

    Verifies the paper's §4.2 accounting: ~4 B/parameter payload for all
    approaches in U1, a ~4 KB per-set overhead for Baseline/Provenance,
    and a multi-KB per-model overhead for MMlib-base.
    """
    cases = _generate_cases(settings.scenario_config())
    rows = []
    data: dict[str, list[dict[str, int]]] = {}
    for approach in APPROACH_NAMES:
        _manager, _ids, measurements = _save_all(approach, cases, settings.profile)
        data[approach] = [m.bytes_by_category() for m in measurements]
        for case, measurement in zip(cases, measurements):
            for category, num_bytes in sorted(measurement.bytes_by_category().items()):
                rows.append([approach, case.name, category, num_bytes / 1e6])
    params_bytes = cases[0].model_set.parameter_bytes
    header = (
        f"Storage breakdown ({settings.num_models} x {settings.architecture}; "
        f"raw parameter payload per set: {params_bytes / 1e6:.3f} MB)"
    )
    text = format_table(
        header, ["approach", "use case", "category", "MB"], rows
    )
    return ExperimentResult(
        "breakdown", text, {"data": data, "params_bytes": params_bytes}
    )


# ---------------------------------------------------------------------------
# A1 — ablation: snapshot interval bounds Update's recovery recursion
# ---------------------------------------------------------------------------

def snapshot_interval(settings: ExperimentSettings) -> ExperimentResult:
    """Update-approach TTR of the final set vs. snapshot interval."""
    cycles = max(settings.cycles, 6)
    cases = _generate_cases(settings.scenario_config(num_update_cycles=cycles))
    rows = []
    data: dict[str, dict[str, float]] = {}
    for interval in (None, 2, 4):
        label = "none (paper)" if interval is None else str(interval)
        manager, set_ids, measurements = _save_all(
            "update", cases, settings.profile, snapshot_interval=interval
        )
        total_mb = sum(m.bytes_written for m in measurements) / 1e6
        final_ttr, _set = _final_ttr(manager, set_ids[-1], settings.runs)
        rows.append([label, total_mb, final_ttr])
        data[label] = {"storage_mb": total_mb, "final_ttr_s": final_ttr}
    text = format_table(
        f"Ablation A1 — Update snapshot interval ({settings.num_models} models, "
        f"{cycles} update cycles): storage vs. final-set TTR",
        ["snapshot interval", "total storage MB", "final TTR s"],
        rows,
        value_format="{:.4f}",
    )
    return ExperimentResult("snapshot_interval", text, {"data": data})


# ---------------------------------------------------------------------------
# A2 — ablation: compression codecs on Update's delta blobs
# ---------------------------------------------------------------------------

def compression(settings: ExperimentSettings) -> ExperimentResult:
    """Update-approach storage/TTS/TTR under different blob codecs."""
    cases = _generate_cases(settings.scenario_config())
    rows = []
    data: dict[str, dict[str, float]] = {}
    for codec in ("none", "zlib", "shuffle-zlib"):
        manager, set_ids, samples = _save_runs(
            "update", cases, settings.profile, settings.runs, codec=codec
        )
        u3_mb = sum(case[0].bytes_written for case in samples[1:]) / 1e6
        tts = median(_medians(samples[1:]))
        final_ttr, recovered = _final_ttr(manager, set_ids[-1], settings.runs)
        if not recovered.equals(cases[-1].model_set):
            raise AssertionError(f"codec {codec!r} corrupted the recovery")
        rows.append([codec, u3_mb, tts, final_ttr])
        data[codec] = {
            "u3_storage_mb": u3_mb,
            "median_u3_tts_s": tts,
            "final_ttr_s": final_ttr,
        }
    text = format_table(
        f"Ablation A2 — compression of Update deltas ({settings.num_models} "
        "models): U3 storage / TTS / final TTR",
        ["codec", "U3 storage MB", "median U3 TTS s", "final TTR s"],
        rows,
        value_format="{:.4f}",
    )
    return ExperimentResult("compression", text, {"data": data})


# ---------------------------------------------------------------------------
# A3 — ablation: heuristic approach recommender (§4.5 future work)
# ---------------------------------------------------------------------------

def recommender(settings: ExperimentSettings) -> ExperimentResult:
    """Recommendations across scenario profiles vs. the paper's rules."""
    engine = ApproachRecommender(hardware=settings.profile)
    profiles = {
        "archival (storage-first, recovery ~never)": ScenarioProfile(
            storage_price_per_gb=100.0,
            time_price_per_hour=0.1,
            recoveries_per_cycle=1e-5,
        ),
        "balanced": ScenarioProfile(
            storage_price_per_gb=10.0,
            time_price_per_hour=10.0,
            recoveries_per_cycle=0.01,
        ),
        "recovery-heavy (TTR-first)": ScenarioProfile(
            storage_price_per_gb=0.01,
            time_price_per_hour=100.0,
            recoveries_per_cycle=2.0,
            expected_chain_length=10,
        ),
    }
    rows = []
    data: dict[str, str] = {}
    for label, profile in profiles.items():
        ranked = engine.rank(profile)
        data[label] = ranked[0].approach
        rows.append(
            [label, ranked[0].approach, " > ".join(e.approach for e in ranked)]
        )
    text = format_table(
        "Ablation A3 — heuristic approach recommendation per scenario profile",
        ["scenario", "recommended", "full ranking"],
        rows,
    )
    return ExperimentResult("recommender", text, {"recommendations": data})


# ---------------------------------------------------------------------------
# E9 — set-size sweep: where set-oriented management starts to pay off
# ---------------------------------------------------------------------------

def set_size_sweep(settings: ExperimentSettings) -> ExperimentResult:
    """Per-model save cost as the set grows: the paper's core premise.

    Existing approaches "are optimized for saving single large models
    but not for simultaneously saving a set of related models" (abstract).
    Concretely: MMlib-base's per-model metadata and round-trip costs are
    constant in *n*, while Baseline amortizes its one document and one
    artifact over the whole set.  The sweep shows per-model storage and
    TTS converging to the raw parameter cost for Baseline and staying
    flat for MMlib-base.
    """
    sizes = sorted({1, 10, 50, max(100, settings.num_models)})
    # Warm the process-wide environment-capture cache so the first
    # MMlib-base save is not charged the one-time package scan.
    from repro.core.mmlib_base import _detailed_environment

    _detailed_environment()
    rows = []
    data: dict[int, dict[str, dict[str, float]]] = {}
    for size in sizes:
        config = settings.scenario_config(num_models=size, num_update_cycles=0)
        cases = _generate_cases(config)
        per_size: dict[str, dict[str, float]] = {}
        for approach in ("mmlib-base", "baseline"):
            _m, _ids, samples = _save_runs(
                approach, cases, settings.profile, settings.runs
            )
            bytes_per_model = samples[0][0].bytes_written / size
            tts_ms_per_model = 1e3 * _medians(samples)[0] / size
            per_size[approach] = {
                "bytes_per_model": bytes_per_model,
                "tts_ms_per_model": tts_ms_per_model,
            }
            rows.append([size, approach, bytes_per_model / 1e3, tts_ms_per_model])
        data[size] = per_size
    text = format_table(
        "Set-size sweep — per-model save cost (U1 only), MMlib-base vs "
        "Baseline",
        ["set size", "approach", "KB/model", "TTS ms/model"],
        rows,
        value_format="{:.4f}",
    )
    return ExperimentResult("set_size_sweep", text, {"data": data})


# ---------------------------------------------------------------------------
# A5 — ablation: Update diff granularity (layer vs model)
# ---------------------------------------------------------------------------

def granularity(settings: ExperimentSettings) -> ExperimentResult:
    """What the paper's per-layer comparison buys over per-model deltas.

    MMlib "compares related models on a layer granularity" (§2.2); a
    simpler design would store any changed model wholesale.  The gap is
    exactly the partial-update share of the workload: with 5% partial
    updates touching one of four layers, layer granularity saves ~40% of
    the delta bytes.
    """
    cases = _generate_cases(settings.scenario_config())
    rows = []
    data: dict[str, dict[str, float]] = {}
    for mode in ("layer", "model"):
        _manager, _ids, samples = _save_runs(
            "update", cases, settings.profile, settings.runs, granularity=mode
        )
        u3_bytes = [case[0].bytes_written for case in samples[1:]]
        u3_mb = sum(u3_bytes) / len(u3_bytes) / 1e6
        tts = median(_medians(samples[1:]))
        rows.append([mode, u3_mb, tts])
        data[mode] = {"u3_storage_mb": u3_mb, "median_u3_tts_s": tts}
    text = format_table(
        f"Ablation A5 — Update diff granularity ({settings.num_models} models, "
        "5% full + 5% partial updates): mean U3 storage / TTS",
        ["granularity", "U3 storage MB", "median U3 TTS s"],
        rows,
        value_format="{:.4f}",
    )
    return ExperimentResult("granularity", text, {"data": data})


# ---------------------------------------------------------------------------
# A4 — ablation: single-model recovery (the paper's §1 scenario)
# ---------------------------------------------------------------------------

def single_model(settings: ExperimentSettings) -> ExperimentResult:
    """Recovering one model vs. the whole set, per approach.

    The deployment scenario recovers "a selected number of models, for
    example, after an accident" (§1).  Range reads make that cheap for
    the set-oriented approaches: one model costs one model-sized read
    from Baseline's artifact, a chain of model-sized reads from Update,
    and a per-model replay from Provenance.
    """
    cases = _generate_cases(settings.scenario_config())
    target = settings.num_models // 2
    rows = []
    data: dict[str, dict[str, float]] = {}
    for approach in ("mmlib-base", "baseline", "update"):
        manager, set_ids, _saves = _save_all(approach, cases, settings.profile)
        final = set_ids[-1]
        # Both sides are accounted alike, in interleaved rounds.
        samples: list[list[Measurement]] = [[], []]
        for _run in range(settings.runs):
            samples[0].append(measure_recover(manager, final)[1])
            samples[1].append(
                _measure(manager, lambda: manager.recover_model(final, target))[1]
            )
        full, single = _medians(samples)
        full_sim, single_sim = _medians(samples, "simulated_s")
        single_mb = median([m.file_stats.bytes_read for m in samples[1]]) / 1e6
        rows.append([approach, full, single, full_sim, single_sim, single_mb])
        data[approach] = {
            "full_ttr_s": full,
            "single_ttr_s": single,
            "full_simulated_s": full_sim,
            "single_simulated_s": single_sim,
            "single_read_mb": single_mb,
        }
    text = format_table(
        f"Ablation A4 — single-model vs full-set recovery "
        f"({settings.num_models} x {settings.architecture}, final set, "
        f"medians of {settings.runs} runs)",
        ["approach", "full-set TTR s", "single-model s", "full simulated s",
         "single simulated s", "file bytes read MB"],
        rows,
        value_format="{:.5f}",
    )
    return ExperimentResult("single_model", text, {"data": data})


# ---------------------------------------------------------------------------
# A8 — ablation: lossy fp16 tier vs exact Baseline (ModelHub design point)
# ---------------------------------------------------------------------------

def quantization(settings: ExperimentSettings) -> ExperimentResult:
    """Half-precision storage: what "minimal loss of accuracy" costs.

    ModelHub's PAS accepts approximate parameters for a smaller
    footprint (§2.2).  ``baseline-fp16`` halves Baseline's parameter
    payload; the quality side measures a genuinely trained battery
    model's voltage RMSE before and after the fp16 roundtrip.
    """
    from repro.battery.datagen import CellDataConfig
    from repro.core.model_set import ModelSet
    from repro.datasets.battery import BatteryCellDataset
    from repro.nn.functional import predict
    from repro.training.pipeline import PipelineConfig as PC
    from repro.training.pipeline import TrainingPipeline

    import numpy as np

    cases = _generate_cases(settings.scenario_config(num_update_cycles=0))
    storage = {}
    for approach in ("baseline", "baseline-fp16"):
        _m, _ids, measurements = _save_all(approach, cases, settings.profile)
        storage[approach] = measurements[0].bytes_written / 1e6

    # Quality impact on a trained model.
    data_config = CellDataConfig(seed=8, samples_per_cell=256, cycle_duration_s=256)
    dataset = BatteryCellDataset(0, 0, data_config)
    models = ModelSet.build(settings.architecture, num_models=1, seed=8)
    model = models.build_model(0)
    TrainingPipeline(
        PC(learning_rate=0.02, momentum=0.9, epochs=20, batch_size=64)
    ).train(model, dataset)
    models.states[0] = model.state_dict()
    manager = MultiModelManager.with_approach(
        "baseline-fp16", ArchiveConfig(profile=settings.profile)
    )
    set_id = manager.save_set(models)
    lossy_model = manager.recover_set(set_id).build_model(0)
    inputs, targets = dataset.arrays()
    exact_mse = float(np.mean((predict(model, inputs) - targets) ** 2))
    lossy_mse = float(np.mean((predict(lossy_model, inputs) - targets) ** 2))

    rows = [
        ["baseline (fp32, exact)", storage["baseline"], exact_mse],
        ["baseline-fp16 (lossy)", storage["baseline-fp16"], lossy_mse],
    ]
    text = format_table(
        f"Ablation A8 — fp16 storage tier ({settings.num_models} models): "
        "U1 storage / trained-model MSE after roundtrip",
        ["tier", "U1 storage MB", "normalized MSE"],
        rows,
        value_format="{:.5f}",
    )
    return ExperimentResult(
        "quantization",
        text,
        {
            "storage_mb": storage,
            "exact_mse": exact_mse,
            "lossy_mse": lossy_mse,
        },
    )


# ---------------------------------------------------------------------------
# V1 — validation: measured lifecycle cost vs the recommender's model
# ---------------------------------------------------------------------------

def timeline(settings: ExperimentSettings) -> ExperimentResult:
    """A full deployment timeline, measured and predicted.

    Runs U1 plus ``cycles`` update cycles with one full-set recovery at
    the end (the paper's rare post-accident read), accumulating each
    approach's total storage and total time (the sum of its points'
    medians).  The same scenario is fed
    to the :class:`~repro.core.recommender.ApproachRecommender`'s
    analytical model; agreement on the *ordering* validates that the
    recommender ranks on numbers that track reality.
    """
    from repro.core.recommender import ApproachRecommender, ScenarioProfile

    cases = _generate_cases(settings.scenario_config())
    recoveries_per_cycle = 1.0 / max(settings.cycles, 1)
    rows = []
    measured: dict[str, dict[str, float]] = {}
    for approach in APPROACH_NAMES:
        manager, set_ids, samples = _save_runs(
            approach, cases, settings.profile, settings.runs
        )
        total_storage = sum(case[0].bytes_written for case in samples)
        # Synthetic updates cannot be replayed; Provenance recovers the
        # initial full set (same store path, no retraining) for the timeline.
        recovered_id = set_ids[0] if approach == "provenance" else set_ids[-1]
        total_time = sum(_medians(samples)) + _final_ttr(
            manager, recovered_id, settings.runs
        )[0]
        measured[approach] = {
            "storage_mb": total_storage / 1e6,
            "time_s": total_time,
        }
        rows.append([approach, total_storage / 1e6, total_time])

    profile = ScenarioProfile(
        num_models=settings.num_models,
        update_rate=settings.full_fraction + settings.partial_fraction,
        partial_share=settings.partial_fraction
        / max(settings.full_fraction + settings.partial_fraction, 1e-9),
        recoveries_per_cycle=recoveries_per_cycle,
        expected_chain_length=settings.cycles,
    )
    estimates = ApproachRecommender(hardware=settings.profile).estimate(profile)
    predicted_storage_order = sorted(
        estimates, key=lambda a: estimates[a].storage_bytes_per_cycle
    )
    measured_storage_order = sorted(
        measured, key=lambda a: measured[a]["storage_mb"]
    )
    text = format_table(
        f"Validation V1 — measured lifecycle totals over U1+{settings.cycles} "
        f"cycles + 1 recovery ({settings.num_models} models)",
        ["approach", "total storage MB", "total time s"],
        rows,
        value_format="{:.4f}",
    )
    text += (
        f"\n\npredicted storage order: {' < '.join(predicted_storage_order)}"
        f"\nmeasured  storage order: {' < '.join(measured_storage_order)}"
    )
    return ExperimentResult(
        "timeline",
        text,
        {
            "measured": measured,
            "predicted_storage_order": predicted_storage_order,
            "measured_storage_order": measured_storage_order,
        },
    )


# ---------------------------------------------------------------------------
# A6 — ablation: PAS-style XOR-delta encoding vs Update (§2.2 / §4.5)
# ---------------------------------------------------------------------------

def delta_encoding(settings: ExperimentSettings) -> ExperimentResult:
    """ModelHub-style delta encoding measured against Update.

    The paper leaves "delta encoding and other compression techniques"
    (§4.5, citing ModelHub) as future work.  ``pas-delta`` stores the
    XOR of consecutive parameter bit patterns, compressed — exploiting
    unchanged bits *within* retrained layers — at the price of
    materializing the base set on every save.
    """
    cases = _generate_cases(settings.scenario_config())
    rows = []
    data: dict[str, dict[str, float]] = {}
    for approach in ("update", "pas-delta"):
        manager, set_ids, samples = _save_runs(
            approach, cases, settings.profile, settings.runs
        )
        u3_mb = sum(case[0].bytes_written for case in samples[1:]) / len(
            samples[1:]
        ) / 1e6
        tts = median(_medians(samples[1:]))
        final_ttr, recovered = _final_ttr(manager, set_ids[-1], settings.runs)
        if not recovered.equals(cases[-1].model_set):
            raise AssertionError(f"{approach} recovery diverged")
        rows.append([approach, u3_mb, tts, final_ttr])
        data[approach] = {
            "u3_storage_mb": u3_mb,
            "median_u3_tts_s": tts,
            "final_ttr_s": final_ttr,
        }
    text = format_table(
        f"Ablation A6 — delta encoding (PAS-style XOR) vs Update "
        f"({settings.num_models} models): mean U3 storage / TTS / final TTR",
        ["approach", "U3 storage MB", "median U3 TTS s", "final TTR s"],
        rows,
        value_format="{:.4f}",
    )
    return ExperimentResult("delta_encoding", text, {"data": data})


# ---------------------------------------------------------------------------
# A7 — ablation: optimal snapshot placement vs fixed intervals
# ---------------------------------------------------------------------------

def snapshot_placement(settings: ExperimentSettings) -> ExperimentResult:
    """Bhattacherjee-style storage/recreation optimization on a real chain.

    Builds the placement problem from an actual Update archive (real
    artifact sizes and the hardware profile's read costs) and compares
    the DP optimum against fixed snapshot intervals under the same
    recovery-time bound.  Update rates alternate between light (5%) and
    heavy (30%) cycles, so delta sizes are heterogeneous — the regime
    where the optimum genuinely beats every fixed interval by putting
    snapshots right after the expensive deltas.
    """
    from repro.core.placement import (
        evaluate_placement,
        optimal_placement,
        problem_from_chain,
    )
    from repro.workloads.scenario import MultiModelScenario, UseCase

    cycles = max(settings.cycles, 8)
    light = MultiModelScenario(
        settings.scenario_config(
            full_update_fraction=0.025, partial_update_fraction=0.025
        )
    )
    heavy = MultiModelScenario(
        settings.scenario_config(
            full_update_fraction=0.15, partial_update_fraction=0.15
        )
    )
    current = light.initial_set()
    cases = [UseCase("U1", current, base_index=None, update_info=None)]
    for cycle in range(1, cycles + 1):
        scenario = heavy if cycle % 3 == 0 else light
        current, info = scenario.update_cycle(current, cycle)
        cases.append(
            UseCase(f"U3-{cycle}", current, base_index=cycle - 1, update_info=info)
        )
    manager, set_ids, _saves = _save_all("update", cases, settings.profile)
    problem, _chain = problem_from_chain(manager.context, set_ids[-1])
    # Bound: half of the unbounded chain's worst recovery.
    unbounded = evaluate_placement(problem, {0})
    bound = problem.full_read_s + (
        (unbounded.max_recovery_s - problem.full_read_s) / 2
    )

    rows = []
    data: dict[str, dict[str, float]] = {}
    optimum = optimal_placement(problem, bound)
    rows.append(
        ["optimal (DP)", optimum.total_bytes / 1e6, optimum.max_recovery_s]
    )
    data["optimal"] = {
        "storage_mb": optimum.total_bytes / 1e6,
        "max_recovery_s": optimum.max_recovery_s,
    }
    for interval in (2, 4):
        snapshots = set(range(0, problem.num_versions, interval))
        placement = evaluate_placement(problem, snapshots)
        label = f"fixed interval {interval}"
        feasible = placement.max_recovery_s <= bound + 1e-12
        rows.append(
            [
                label + ("" if feasible else " (violates bound)"),
                placement.total_bytes / 1e6,
                placement.max_recovery_s,
            ]
        )
        data[f"interval-{interval}"] = {
            "storage_mb": placement.total_bytes / 1e6,
            "max_recovery_s": placement.max_recovery_s,
            "feasible": float(feasible),
        }
    text = format_table(
        f"Ablation A7 — snapshot placement on a {cycles}-delta Update chain "
        f"({settings.num_models} models, recovery bound {bound:.4f} s)",
        ["placement", "total storage MB", "max recovery s"],
        rows,
        value_format="{:.4f}",
    )
    return ExperimentResult(
        "snapshot_placement", text, {"data": data, "bound_s": bound}
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

EXPERIMENTS: dict[str, Callable[[ExperimentSettings], ExperimentResult]] = {
    "figure3": figure3,
    "figure4": figure4,
    "figure5": figure5,
    "update-rates": update_rates,
    "model-size": model_size,
    "cifar": cifar,
    "provenance-training": provenance_training,
    "breakdown": breakdown,
    "snapshot-interval": snapshot_interval,
    "compression": compression,
    "recommender": recommender,
    "single-model": single_model,
    "granularity": granularity,
    "set-size-sweep": set_size_sweep,
    "delta-encoding": delta_encoding,
    "snapshot-placement": snapshot_placement,
    "timeline": timeline,
    "quantization": quantization,
}


def run_experiment(name: str, settings: ExperimentSettings) -> ExperimentResult:
    """Run one named experiment (see :data:`EXPERIMENTS` for names)."""
    try:
        experiment = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return experiment(settings)


def main(argv: list[str] | None = None) -> int:
    """``repro-bench`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the tables and figures of 'Efficient "
        "Multi-Model Management' (EDBT 2023).",
    )
    parser.add_argument(
        "experiment",
        choices=[*sorted(EXPERIMENTS), "all"],
        help="which paper artifact to regenerate",
    )
    parser.add_argument("--num-models", type=int, default=500)
    parser.add_argument("--cycles", type=int, default=3)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument(
        "--profile", choices=sorted(_PROFILES), default="server"
    )
    parser.add_argument("--architecture", default="FFNN-48")
    parser.add_argument(
        "--full-scale",
        action="store_true",
        help="use the paper's 5000 models (slow)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="additionally write the machine-readable results as JSON "
        "(one object per experiment, keyed by experiment name)",
    )
    args = parser.parse_args(argv)

    settings = ExperimentSettings(
        num_models=5000 if args.full_scale else args.num_models,
        cycles=args.cycles,
        runs=args.runs,
        profile_name=args.profile,
        architecture=args.architecture,
    )
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    collected: dict[str, dict] = {}
    for name in names:
        result = run_experiment(name, settings)
        print(result.text)
        print()
        collected[name] = result.data
    if args.json is not None:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(collected, handle, indent=2, default=str)
        print(f"wrote JSON results to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
