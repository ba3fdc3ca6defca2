"""Operating a durable model archive: persistence, lineage, verification,
single-model recovery, and retention.

Everything a fleet operator does over the archive's lifetime:

1. open a disk-backed archive and ingest several update cycles,
2. *reopen* it (as a new process would) and inspect the lineage DAG,
3. audit integrity (checksummed artifacts, hash info, chain structure,
   and every set recovered),
4. run a post-accident analysis on a single cell — recovering only that
   model and charting its parameter drift across cycles, and
5. apply a retention policy: keep the newest generations, compacting
   each kept set whose base is older into a full snapshot, and
   garbage-collect everything older.

Run with::

    python examples/archive_operations.py
"""

import tempfile

from repro import (
    ArchiveFsck,
    LineageGraph,
    MultiModelManager,
    RetentionManager,
    model_history,
)
from repro.workloads import MultiModelScenario, ScenarioConfig

NUM_CELLS = 50
CYCLES = 4


def main() -> None:
    scenario = MultiModelScenario(
        ScenarioConfig(
            num_models=NUM_CELLS,
            num_update_cycles=CYCLES,
            full_update_fraction=0.1,
            partial_update_fraction=0.1,
            seed=21,
        )
    )
    cases = list(scenario.use_cases())

    with tempfile.TemporaryDirectory() as root:
        # 1. Ingest: durable archive with the Update approach.
        manager = MultiModelManager.open(root, "update")
        set_ids = []
        for case in cases:
            base = set_ids[case.base_index] if case.base_index is not None else None
            set_ids.append(
                manager.save_set(
                    case.model_set, base_set_id=base, update_info=case.update_info
                )
            )
        print(
            f"ingested {len(set_ids)} generations "
            f"({manager.total_stored_bytes() / 1e6:.2f} MB on disk)"
        )

        # 2. Reopen, as a fresh process would, and inspect lineage.
        manager = MultiModelManager.open(root, "update")
        lineage = LineageGraph.from_context(manager.context)
        latest = lineage.leaves()[0]
        print(
            f"lineage: root {lineage.roots()[0]}, latest {latest}, "
            f"recovery chain depth {lineage.chain_depth(latest)}"
        )

        # 3. Audit integrity before trusting the archive.
        report = ArchiveFsck(manager.context).run(deep=True, recover=True)
        print(
            f"integrity audit: {report.sets_checked} sets checked, "
            f"{'clean' if report.ok else report.summary()}"
        )

        # 4. Post-accident analysis of one cell: recover only its model.
        cell = cases[1].update_info.updates[0].model_index
        state = manager.recover_model(latest, cell)
        history = model_history(manager, set_ids, cell)
        read_kb = sum(arr.nbytes for arr in state.values()) / 1e3
        drift = ", ".join(f"{d:.3f}" for d in history.drift_from_start)
        print(f"cell #{cell}: recovered {read_kb:.1f} KB of parameters")
        print(f"cell #{cell} parameter drift across generations: [{drift}]")

        # 5. Retention: keep the last two generations.
        before = manager.total_stored_bytes()
        gc_report = RetentionManager(manager.context).keep_last(2)
        after = manager.total_stored_bytes()
        print(
            f"retention: deleted {len(gc_report.deleted_sets)} generations, "
            f"reclaimed {gc_report.bytes_reclaimed / 1e6:.2f} MB "
            f"({before / 1e6:.2f} -> {after / 1e6:.2f} MB)"
        )

        # The survivors still recover bit-exactly.
        recovered = manager.recover_set(latest)
        assert recovered.equals(cases[-1].model_set)
        assert ArchiveFsck(manager.context).run(deep=True, recover=True).ok
        print("post-retention: latest generation recovers bit-exactly, audit clean")


if __name__ == "__main__":
    main()
