"""Turns the passes of one workload into the named metrics.

``BENCHMARK.json`` is the single catalogue of metric names, units,
directions and bounds; this module produces the values.  End-to-end
values come from the untraced pass only.  Per-layer values come from
the traced pass (self times, counts) and, for the few that are ratios
between passes or latencies that tracing would inflate, from the
untraced pass run beside it.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.wallclock.harness import PassResult, median, peak_rss_mb, percentile
from benchmarks.wallclock.tracer import Tracer

CONTRACT_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Largest share of the timed wall the layer self times plus the
#: unattributed remainder may miss or overshoot (the attribution check).
ATTRIBUTION_TOLERANCE = 0.02

RECOVER_GROUPS = ("recover_set", "recover_model")


def contract() -> dict:
    return json.loads(CONTRACT_PATH.read_text())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _sample(values: "list[float]", scale: float = 1.0) -> dict:
    """A timing's median as ``{"value", "n"}``."""
    return {"value": median(values) * scale, "n": len(values)}


def end_to_end(result: PassResult) -> "dict[str, dict]":
    """Every end-to-end metric of one untraced pass, as ``{"value", "n"}``."""
    rec, facts = result.recorder, result.facts
    groups = facts.get("throughput_groups")
    loop_wall = sum(rec.walls(*groups)) if groups else sum(op.wall_s for op in rec.ops)
    loop_ops = facts.get("throughput_ops", len(rec.ops))
    model_reads = rec.walls("recover_model")
    return {
        "setup_s": _sample(result.setup_s),
        "save_us_per_model_p50": _sample(rec.walls("save", per_unit=True), 1e6),
        "recover_set_us_per_model_p50": _sample(
            rec.walls("recover_set", per_unit=True), 1e6
        ),
        "recover_model_us_p50": _sample(model_reads, 1e6),
        "registry_diff_us_p50": _sample(rec.walls("diff"), 1e6),
        "ops_per_s": {"value": _ratio(loop_ops, loop_wall), "n": loop_ops},
        "stored_bytes_per_user_byte": {
            "value": _ratio(facts["stored_bytes"], facts["user_bytes"]),
            "n": 1,
        },
        "sim_tts_s": {
            "value": rec.sim_s(*facts.get("save_groups", ("save",))),
            "n": len(rec.walls(*facts.get("save_groups", ("save",)))),
        },
        "sim_ttr_s": {
            "value": rec.sim_s(*RECOVER_GROUPS),
            "n": len(rec.walls(*RECOVER_GROUPS)),
        },
        "peak_rss_mb": {"value": peak_rss_mb(), "n": 1},
    }


class _Layered:
    """Sums of the traced aggregates by layer, role and op-kind filter."""

    def __init__(self, tracer: Tracer, result: PassResult) -> None:
        rec = result.recorder
        self._self, self._total, self._calls, covered = tracer.aggregate(
            [op.kind for op in rec.ops], [op.slowdown for op in rec.ops]
        )
        self.counts = rec.counts
        wall = sum(op.wall_s for op in rec.ops)
        self.unattributed = sum(
            max(0.0, op.wall_s - covered[index]) for index, op in enumerate(rec.ops)
        )
        self.unattributed_share = _ratio(self.unattributed, wall)
        self.attribution_error = _ratio(
            abs(sum(self._self.values()) + self.unattributed - wall), wall
        )

    @staticmethod
    def _pick(table, layer, roles, kinds):
        return sum(
            value
            for (row_layer, role, kind), value in table.items()
            if row_layer == layer
            and (not roles or role in roles)
            and (kinds is None or kinds(kind))
        )

    def self_s(self, layer, *roles, kinds=None) -> float:
        return self._pick(self._self, layer, roles, kinds)

    def total_s(self, layer, *roles, kinds=None) -> float:
        return self._pick(self._total, layer, roles, kinds)

    def calls(self, layer, *roles, kinds=None) -> int:
        return self._pick(self._calls, layer, roles, kinds)

    def count(self, name, kinds=None) -> float:
        return sum(
            value
            for (row_name, kind), value in self.counts.items()
            if row_name == name and (kinds is None or kinds(kind))
        )


def _group(*groups: str):
    return lambda kind: kind.partition(":")[0] in groups


def _kinds(*kinds: str):
    return lambda kind: kind in kinds


def _outcome(suffix: str):
    return lambda kind: kind.endswith(":" + suffix)


def per_layer(
    untraced: PassResult,
    traced: PassResult,
    tracer: Tracer,
    program_traced: "PassResult | None" = None,
) -> "dict[str, float]":
    """Every per-layer metric of one workload (0 where a layer saw no call)."""
    t = _Layered(tracer, traced)
    plain, rec, facts = untraced.recorder, traced.recorder, traced.facts
    timed_user_bytes = facts["user_bytes"] - facts["setup_user_bytes"]
    saving = tuple(facts.get("save_groups", ("save",)))
    growth = plain.walls(facts.get("growth_kind", "save"), per_unit=True)
    diffs = len(rec.walls("diff"))
    model_reads = len(rec.walls("recover_model"))
    flushing, hit, miss = _kinds("submit:flush", "close"), _outcome("hit"), _outcome("miss")
    ingest = facts.get("ingest", {})
    serving = facts.get("serving", {})
    upkeep = facts.get("maintenance", {})
    replication = facts.get("replication", {})
    plain_wall = sum(op.wall_s for op in plain.ops)
    values = {
        "nn.serialization.encode_self_s": t.self_s("nn.serialization", "encode"),
        "nn.serialization.decode_self_s": t.self_s("nn.serialization", "decode"),
        "nn.serialization.bytes_encoded": t.count("bytes_encoded"),
        "nn.serialization.bytes_decoded": t.count("bytes_decoded"),
        "nn.serialization.calls": t.calls("nn.serialization"),
        "storage.hashing.self_s": t.self_s("storage.hashing"),
        "storage.hashing.bytes_hashed": t.count("bytes_hashed"),
        "storage.hashing.calls": t.calls("storage.hashing"),
        "core.update.save_self_s": t.self_s("core.update", "save"),
        "core.update.recover_self_s": t.self_s("core.update", "recover"),
        "core.update.recover_model_self_s": t.self_s("core.update", "recover_model"),
        "core.update.layers_offered": t.count("layers_offered"),
        "core.update.layers_written": t.count("layers_written"),
        "core.update.delta_write_ratio": _ratio(
            t.count("layers_written"), t.count("layers_offered")
        ),
        "core.update.chain_docs_read_per_recover_model": _ratio(
            t.calls("storage.persistent", "doc_read", kinds=_group("recover_model"))
            + t.calls("storage.replication", "vote", kinds=_group("recover_model")),
            model_reads,
        ),
        "core.baseline.write_self_s": t.self_s("core.baseline", "write"),
        "core.baseline.read_self_s": t.self_s("core.baseline", "read"),
        "storage.journal.self_s": t.self_s("storage.journal"),
        "storage.journal.txns": t.count("journal_txns"),
        "storage.journal.ops_logged": t.count("journal_ops_logged"),
        "storage.journal.bytes_written": t.count("journal_bytes_written"),
        "storage.persistent.file_write_self_s": t.self_s("storage.persistent", "file_write"),
        "storage.persistent.file_read_self_s": t.self_s("storage.persistent", "file_read"),
        "storage.persistent.doc_write_self_s": t.self_s("storage.persistent", "doc_write"),
        "storage.persistent.doc_read_self_s": t.self_s("storage.persistent", "doc_read"),
        "storage.persistent.file_bytes_written": t.count("file_bytes_written"),
        "storage.persistent.file_bytes_read": t.count("file_bytes_read"),
        "storage.persistent.doc_bytes_written": t.count("doc_bytes_written"),
        "storage.persistent.doc_bytes_read": rec.doc_bytes_read,
        "storage.persistent.file_ops": t.calls(
            "storage.persistent", "file_write", "file_read"
        ),
        "storage.persistent.doc_ops": t.calls("storage.persistent", "doc_write", "doc_read"),
        "storage.persistent.bytes_written_per_user_byte": _ratio(
            t.count("file_bytes_written", kinds=_group(*saving))
            + t.count("doc_bytes_written", kinds=_group(*saving)),
            timed_user_bytes,
        ),
        "storage.chunk_index.ingest_self_s": t.self_s("storage.chunk_index", "ingest"),
        "storage.chunk_index.fetch_self_s": t.self_s("storage.chunk_index", "fetch"),
        "storage.chunk_index.chunks_offered": t.count("chunks_offered"),
        "storage.chunk_index.chunks_new": t.count("chunks_new"),
        "storage.chunk_index.dedup_hit_ratio": _ratio(
            t.count("chunks_offered") - t.count("chunks_new"), t.count("chunks_offered")
        ),
        "storage.chunk_index.chunks_fetched": t.count("chunks_fetched"),
        "storage.chunk_index.refs_ledger_bytes_written": t.count(
            "refs_ledger_bytes_written"
        ),
        "storage.replication.write_self_s": t.self_s("storage.replication", "write"),
        "storage.replication.read_self_s": t.self_s("storage.replication", "read", "vote"),
        "storage.replication.replica_ops_per_logical_op": _ratio(
            t.calls("storage.persistent") if t.calls("storage.replication") else 0,
            t.calls("storage.replication", "write", "read"),
        ),
        "storage.replication.vote_reads": t.calls("storage.replication", "vote"),
        "storage.replication.failovers": replication.get("failovers", 0),
        "storage.replication.repairs_queued": replication.get("repairs_queued", 0),
        "fleet.manager.save_self_s": t.self_s("fleet.manager", "save"),
        "fleet.manager.recover_self_s": t.self_s("fleet.manager", "recover"),
        "fleet.manager.route_self_s": t.self_s("fleet.manager", "route"),
        "fleet.manager.saves_refused": ingest.get("saves_refused", 0),
        "fleet.ingest.submit_self_s": t.self_s("fleet.ingest", "submit"),
        "fleet.ingest.flush_self_s": t.self_s("fleet.ingest", "flush"),
        "fleet.ingest.base_recover_share": _ratio(
            t.total_s("fleet.manager", "recover", kinds=flushing),
            sum(op.wall_s for op in rec.ops if flushing(op.kind)),
        ),
        "fleet.ingest.flushes": ingest.get("flushes", 0),
        "fleet.ingest.coalescing_ratio": ingest.get("coalescing_ratio", 0.0),
        "fleet.ingest.write_elision_ratio": ingest.get("write_elision_ratio", 0.0),
        "fleet.ingest.updates_shed": ingest.get("updates_shed", 0),
        "fleet.ingest.flush_retries": ingest.get("flush_retries", 0),
        "fleet.ingest.dead_lettered": ingest.get("dead_lettered", 0),
        "serving.set_hit_rate": serving.get("set_hit_rate", 0.0),
        "serving.chunk_hit_rate": serving.get("chunk_hit_rate", 0.0),
        "serving.set_cache_evictions": serving.get("set_cache_evictions", 0),
        "serving.chunk_cache_evictions": serving.get("chunk_cache_evictions", 0),
        "serving.hit_self_s": t.self_s("serving", kinds=hit),
        "serving.miss_assembly_self_s": t.self_s("serving", kinds=miss),
        "serving.chunks_fetched_per_miss": _ratio(
            serving.get("chunk_misses", 0), serving.get("set_misses", 0)
        ),
        "serving.bytes_saved": serving.get("bytes_saved", 0),
        "registry.record_save_self_s": t.self_s("registry", "record_save"),
        "registry.diff_self_s": t.self_s("registry", "diff"),
        "registry.docs_read_per_diff": _ratio(
            t.count("doc_raw_reads", kinds=_group("diff"))
            + t.calls("storage.persistent", "doc_read", kinds=_group("diff"))
            + t.calls("storage.replication", "vote", kinds=_group("diff")),
            diffs,
        ),
        "registry.parameter_bytes_read_per_diff": _ratio(
            t.count("file_bytes_read", kinds=_group("diff")), diffs
        ),
        "maintenance.pass_wall_s": sum(rec.walls("maintenance")),
        "maintenance.sets_collected": upkeep.get("sets_collected", 0),
        "maintenance.chunks_swept": upkeep.get("chunks_swept", 0),
        "maintenance.bytes_reclaimed": upkeep.get("bytes_reclaimed", 0),
        "observability.bench_trace_overhead_ratio": _ratio(
            sum(op.wall_s for op in rec.ops), plain_wall
        ),
        "observability.host_slowdown_p50": median([op.slowdown for op in plain.ops]),
        "observability.program_tracing_overhead_ratio": (
            _ratio(sum(op.wall_s for op in program_traced.recorder.ops), plain_wall)
            if program_traced is not None
            else 0.0
        ),
        "process.tracemalloc_peak_mb": traced.tracemalloc_peak_mb,
        "process.alloc_blocks_per_model_save": median(
            [op.blocks / op.units for op in rec.ops if op.group == "save"]
        ),
        "process.alloc_blocks_per_model_recover": median(
            [op.blocks / op.units for op in rec.ops if op.group == "recover_set"]
        ),
        "shape.save_growth_ratio": (
            _ratio(median(growth[-4:]), median(growth[:4])) if len(growth) >= 8 else 0.0
        ),
        "shape.recover_model_depth_ratio": _ratio(
            median(plain.walls("recover_model")), median(plain.walls("recover_model_root"))
        ),
        "shape.unattributed_share": t.unattributed_share,
        "shape.attribution_error": t.attribution_error,
        "recover_model_us_p90": (
            1e6 * percentile(plain.walls("recover_model"), 0.9)
            if len(plain.walls("recover_model")) >= 100
            else 0.0
        ),
        "ingest_flush_us_per_update_p50": 1e6
        * median(plain.walls("submit:flush", per_unit=True)),
        "serve_hit_us_per_model_p50": 1e6
        * median(plain.walls("recover_set:hit", per_unit=True)),
        "serve_miss_us_per_model_p50": 1e6
        * median(plain.walls("recover_set:miss", per_unit=True)),
    }
    return values
