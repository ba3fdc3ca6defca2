"""The repository's grep gates, run as one tier-1 test.

Each row: a pattern that must not come back, the ``path:line:text`` hits
it allows (as ``grep -v`` drops them), why, and a line it must catch,
which ``test_each_gate_still_fires`` plants in a scratch tree.  This file
holds the patterns and is not scanned.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
TREE = ("src", "tests", "benchmarks", "examples")


class Gate(NamedTuple):
    name: str
    pattern: str
    allowed: tuple  # ``grep -v`` patterns over ``path:line:text``
    reason: str
    sample: "str | tuple"  # a line the gate must catch (each one), planted at ``plant``
    plant: str = "src/repro/planted.py"
    roots: tuple = TREE
    check: "Callable[[Path], list[str]] | None" = None  # a multi-line gate


def scan(root: Path, roots, pattern: str, allowed=()) -> list[str]:
    hits = []
    for top in roots:
        for path in sorted((root / top).rglob("*.py")):
            if path.resolve() == Path(__file__).resolve():
                continue
            relative = path.relative_to(root).as_posix()
            for number, line in enumerate(path.read_text().splitlines(), 1):
                hit = f"{relative}:{number}:{line}"
                if re.search(pattern, line) and not any(re.search(a, hit) for a in allowed):
                    hits.append(hit)
    return hits


def replica_visits(root: Path) -> list[str]:
    """Private replication names imported, or replicas looped over, outside
    storage; a parenthesized import's names are its eight next lines."""
    outside = (r"^src/repro/storage/",)
    hits = scan(
        root, ("src/repro",),
        r"from repro\.storage\.replication import .*\b_[A-Za-z]|for .+ in .+\.replicas\b", outside,
    )
    opened = r"from repro\.storage\.replication import \($"
    for hit in scan(root, ("src/repro",), opened, outside):
        relative, number, _line = hit.split(":", 2)
        lines = (root / relative).read_text().splitlines()
        for after in range(int(number) + 1, min(int(number) + 9, len(lines) + 1)):
            if re.match(r"\s+_[A-Za-z]", lines[after - 1]):
                hits.append(f"{relative}:{after}:{lines[after - 1]}")
    return hits


def descriptor_builders(root: Path) -> list[str]:
    """Exactly one file under src/repro builds a set descriptor, and the
    removed streaming writer is named nowhere."""
    hits = scan(root, ("src/repro",), '"architecture_code"')
    builders = sorted({hit.split(":")[0] for hit in hits})
    if len(builders) != 1:
        return builders or ["src/repro: no file builds a set descriptor"]
    return scan(root, TREE, "write_full_set_streaming")


def undeclared_imports(root: Path) -> list[str]:
    """Third-party top-level imports under src/repro that pyproject.toml's
    ``[project] dependencies`` do not declare (each declared distribution
    is imported under its own name)."""
    declared = set()
    pyproject = root / "pyproject.toml"
    if pyproject.exists():
        listed = re.search(r"^dependencies = (\[.*\])$", pyproject.read_text(), re.M)
        declared = {re.split(r"[<>=!~;\[ ]", spec)[0] for spec in ast.literal_eval(listed[1])}
    hits = []
    for path in sorted((root / "src/repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in declared | {"repro"}:
                    hits.append(f"{path.relative_to(root).as_posix()}:{node.lineno}:{name}")
    return hits


def newest_writer_passes(root: Path) -> list[str]:
    """core/recovery.py resolves newest-writer-wins in one place: one
    ``np.unique(..., return_index=...)``, and no per-selection ``row_of``."""
    path = root / "src/repro/core/recovery.py"
    if not path.exists():
        return []
    relative, text = path.relative_to(root).as_posix(), path.read_text()
    hits = [
        f"{relative}:{number}:{line}"
        for number, line in enumerate(text.splitlines(), 1)
        if re.search(r"\brow_of\b", line)
    ]
    passes = [
        f"{relative}:{node.lineno}:np.unique(..., return_index=...)"
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "np.unique"
        and any(keyword.arg == "return_index" for keyword in node.keywords)
    ]
    if len(passes) != 1:
        hits.extend(passes or [f"{relative}: no newest-writer pass"])
    return hits


#: The whole-row compare, written once (``recovery.changed_rows``).
ROW_COMPARE = r"map\(ne, old, new\)"


def digest_readers(root: Path) -> list[str]:
    """Only core/recovery.py reads a stored digest matrix (baseline.py
    writes it): no digest-document subscript or hash-info read anywhere
    else, no digest compare outside recovery.py, and its whole-row
    compare written once."""
    trees = ("src", "benchmarks", "examples")
    hits = scan(
        root, trees,
        r"\[[\"'](hashes|chunk_digests|layers)[\"']\]|\.get\([\"'](hashes|chunk_digests)[\"']|"
        r"\.(get|peek|peek_collection)\(\s*(HASH_COLLECTION|[\"']hash_info[\"'])",
        (r"^src/repro/core/(recovery|baseline)\.py:",),
    )
    hits += scan(root, trees, r"\bmap\(ne\b", (r"^src/repro/core/recovery\.py:",))
    path = root / "src/repro/core/recovery.py"
    if path.exists():
        compares = len(re.findall(ROW_COMPARE, path.read_text()))
        if compares != 1:
            hits.append(f"src/repro/core/recovery.py: {compares} whole-row compares, not 1")
    return hits

GATES = (
    Gate("Legacy-kwarg",
         r"(with_approach|\.open|\.create)\((?:(?!ArchiveConfig)[^()])*\b"
         r"(profile|workers|dedup|journal|retry|replicas|write_quorum|read_quorum)=",
         (r"tests/core/test_config.py",),
         "per-knob kwargs raise TypeError; pass ArchiveConfig (the allowance tests that)",
         "m = MultiModelManager.with_approach('update', workers=4)"),
    Gate("Document reach-through", r"\._collections\b", (r"^src/repro/storage/",),
         "outside storage read documents with peek(); _collections votes on every document",
         "docs = store._collections", roots=("src/repro",)),
    Gate("Recovery-internals", r"from repro\.core\.(update|baseline|recovery) import .*\b_[a-z]",
         (r"^src/repro/core/",), "outside repro.core recovery is the public plan API",
         "from repro.core.recovery import _plan", "tests/planted.py"),
    Gate("Row-constructor", r"\bfrom_rows\(", (r"^src/repro/(core|serving)/",),
         "from_rows skips the schema check: only recovery and serving build rows from a plan",
         "models = ModelSet.from_rows(rows)", "benchmarks/planted.py"),
    Gate("Removed-knob", r"\bdifferential=", (),
         "ServingConfig.differential was removed: tier 2 serves whenever digests are stored",
         "config = ServingConfig(differential=True)", "examples/planted.py"),
    Gate("Replica-visit", "", (),
         "a replica is visited in storage/replication.py only: no private imports or loops",
         "from repro.storage.replication import (\n    ReplicatedFileStore,\n    _MISSED,\n)",
         "src/repro/core/planted.py", check=replica_visits),
    Gate("Spill-mode", r"(^|[^A-Za-z])FileStore\([^)]*directory=", (),
         "FileStore(directory=) was removed; the disk backend is PersistentFileStore",
         "store = FileStore(directory='spill')"),
    Gate("Set-descriptor", "", (),
         "a full set is written by core/baseline.write_set; its descriptor is built in one file",
         'descriptor = {"architecture_code": code}', check=descriptor_builders),
    Gate("Retention", r"\b(compact_oldest_kept|_cmd_fleet_gc|on_deleted)\b", (),
         "keep-the-newest-K is one rule, retire(older_than_newest(...))",
         "manager.compact_oldest_kept()"),
    Gate("Catalog hooks", r"\brecord_retention\b|\b_registry_if_active\b|view\.on_retired\b", (),
         "the catalog hears retention from the transaction, not from a hook",
         "registry.record_retention(ids)"),
    Gate("Catalog writers", r"\.record_(save|delete|compact)\(",
         (r"\bstats\.record_delete\(", r"^(src/repro/core/manager\.py|src/repro/core/retention\.py|"
          r"src/repro/registry/|tests/registry/)"),
         "only the engine's save wrapper and RetentionManager make catalog records",
         "registry.record_save(set_id)", "src/repro/fleet/planted.py"),
    Gate("Topology helpers",
         r"\b(_run_fleet|_open_fleet_contexts|_fleet_shard_count|_fleet_catalog_hook|"
         r"_cmd_fleet_warm|for_contexts|for_fleet|_shard_config|_init_catalog|"
         r"_init_observability|_init_serving|maintenance_targets)\b", (),
         "a plain archive is one shard; schedulers come from MaintenanceScheduler.for_manager",
         "scheduler = MaintenanceScheduler.for_fleet(fleet)"),
    Gate("Topology class checks", r"needs the sharded fleet engine|isinstance\([^)]*FleetManager",
         (), "MultiModelManager and FleetManager are one engine",
         "if isinstance(manager, FleetManager):"),
    Gate("Document-plane", r"encode_document\(|json\.loads\(json\.dumps\(|marshal\.(loads|dumps)",
         (), "charge stored_size() and return the held document; an editor calls thaw()",
         "copy = marshal.loads(blob)", "src/repro/storage/planted.py", ("src/repro/storage",)),
    Gate("Retired-bench",
         r"repro\.bench\.(dedup|serving|fleet|scaling|registry|faults|replication)\b|"
         r"bench_(dedup|serving|fleet_scaling|parallel_scaling|registry|faults)|"
         r"repro\.bench\.(chaos|soak)|bench_(chaos|soak)|REPRO_(CHAOS|SOAK)_|"
         r"pytest_benchmark|benchmark\.pedantic|REPRO_BENCH_MODELS|REPRO_FULL_SCALE", (),
         "retired benches' claims are tier-1 tests; their timings the wall-clock ledger and "
         "repro-bench, whose points are medians of _measure samples",
         ("CYCLES = os.environ['REPRO_SOAK_CYCLES']", "import pytest_benchmark",
          "data = benchmark.pedantic(run, rounds=2, iterations=1)",
          "MODELS = int(os.environ.get('REPRO_BENCH_MODELS', '100'))",
          "if os.environ.get('REPRO_FULL_SCALE') == '1':"),
         "benchmarks/planted.py"),
    Gate("Second-audit",
         r"\b(ArchiveVerifier|VerificationReport|verify_all)\b|repro\.core\.verify\b",
         (), "ArchiveFsck is the one audit: run(deep=, recover=) holds every verify check",
         "from repro.core.verify import ArchiveVerifier", "tests/planted.py"),
    Gate("Side-reader", r"\b(_bits_to_set|_recover_model_replay|_apply_delta_to_model)\b", (),
         "every set and model recovers through the plan; replay's one reader is the whole set",
         "state = self._recover_model_replay(set_id, 0)"),
    Gate("Declared-dependency", "", (),
         "import repro must work on a clean install: declare every third-party import",
         "import networkx as nx", check=undeclared_imports),
    Gate("No-networkx", r"^\s*(import networkx|from networkx\b)", (),
         "the lineage is one descriptor scan into plain dicts; numpy is the one dependency",
         "    from networkx import topological_sort", roots=("src",)),
    Gate("One chunk index", r"\b_Chunk\b|\._chunks\[|\._chunks\.items\(", (),
         "the chunk store is its digest-id columns; read a chunk through locate(), not a hex dict",
         "record = chunk_store._chunks[digest]", "tests/planted.py"),
    Gate("One newest-writer pass", "", (),
         "a model's plan is a gather from the chain table, not a second resolve",
         "row_of = np.full(num_models, -1)", "src/repro/core/recovery.py",
         check=newest_writer_passes),
    Gate("Frozen rows stay frozen",
         r"writeable\s*=\s*True|setflags\([^)]*write\s*=\s*True|\btouched=|\btouched\s*:",
         (r"^src/repro/(core/manager|fleet/ingest)\.py:\d+:"
          r"(?!.*(writeable|setflags)).*\btouched=",
          r"^src/repro/core/(manager|update)\.py:\d+:(?!.*(writeable|setflags)).*\btouched\s*:"),
         "a saved set's rows stay read-only, only the engine's identity test and the "
         "ingest queue's batch vouch that a model is unchanged, and only Update's "
         "save_derived (and the engine that hands it over) takes touched",
         ("row.flags.writeable = True", "row.setflags(write=True)",
          "approach.save_derived(models, base_id, touched=frozenset())",
          '        touched: "frozenset[int] | None" = None,'),
         roots=("src/repro",)),
    Gate("One copy per read", r"(\.rows|\bmatrix)(\[[^]]*\])?\.copy\(\)", (),
         "a serving answer is a read-only view of its tier-1 entry: neither a hit nor a miss "
         "copies the entry's rows or the assembled matrix",
         ("value = entry.rows.copy()", "state = ModelState(schema, entry.rows[index].copy())",
          "entry = SetEntry(matrix.copy(), architecture, schema)"),
         "src/repro/serving/planted.py", ("src/repro/serving",)),
    Gate("One digest reader", "", (),
         "a set's stored digests have one reader (recovery.stored_digests) and one "
         "row comparison (recovery.changed_rows)",
         ('rows = hash_doc["hashes"]', 'matrix = descriptor["chunk_digests"]',
          'names = hash_doc["layers"]', 'rows = hash_doc.get("hashes")',
          "doc = store.peek(HASH_COLLECTION, set_id)",
          "docs = store.peek_collection(HASH_COLLECTION)",
          "changed = list(compress(count(), map(ne, old, new)))"),
         "src/repro/fleet/planted.py", check=digest_readers),
)


def violations(gate: Gate, root: Path) -> list[str]:
    return gate.check(root) if gate.check else scan(root, gate.roots, gate.pattern, gate.allowed)


@pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.name)
def test_gate_holds(gate):
    assert violations(gate, ROOT) == [], gate.reason


@pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.name)
def test_each_gate_still_fires(gate, tmp_path):
    for top in TREE:
        (tmp_path / top).mkdir()
    (tmp_path / "src/repro/core").mkdir(parents=True)
    (tmp_path / "src/repro/core/baseline.py").write_text('KEY = "architecture_code"\n')
    assert violations(gate, tmp_path) == []
    planted = tmp_path / gate.plant
    planted.parent.mkdir(parents=True, exist_ok=True)
    for sample in gate.sample if isinstance(gate.sample, tuple) else (gate.sample,):
        planted.write_text(f"import os\n{sample}\n")
        assert violations(gate, tmp_path), f"{gate.name} missed {sample!r}"
