"""API-surface quality gates: exports resolve, public items documented."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.chain",
    "repro.datagen",
    "repro.features",
    "repro.graphs",
    "repro.nn",
    "repro.nn.inference",
    "repro.gnn",
    "repro.ml",
    "repro.seqmodels",
    "repro.core",
    "repro.baselines",
    "repro.eval",
    "repro.serve",
    "repro.obs",
    "repro.utils",
    "repro.analysis",
]


@pytest.mark.parametrize("package_name", PACKAGES)
class TestExports:
    def test_all_exports_resolve(self, package_name):
        module = importlib.import_module(package_name)
        assert hasattr(module, "__all__"), f"{package_name} lacks __all__"
        for name in module.__all__:
            assert hasattr(module, name), (
                f"{package_name}.__all__ lists {name!r} but it is missing"
            )

    def test_package_documented(self, package_name):
        module = importlib.import_module(package_name)
        assert module.__doc__ and module.__doc__.strip()

    def test_public_callables_documented(self, package_name):
        """Every exported class and function carries a docstring."""
        module = importlib.import_module(package_name)
        undocumented = []
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
        assert not undocumented, (
            f"{package_name}: undocumented exports {undocumented}"
        )

    def test_public_methods_documented(self, package_name):
        """Public methods of exported classes carry docstrings.

        Overrides of documented base-class methods (``fit``, ``forward``,
        ``on_step``...) inherit their contract; documentation anywhere in
        the MRO satisfies the gate.
        """
        module = importlib.import_module(package_name)
        undocumented = []
        for name in module.__all__:
            obj = getattr(module, name)
            if not inspect.isclass(obj):
                continue
            for method_name, method in vars(obj).items():
                if method_name.startswith("_") or not callable(method):
                    continue
                documented = any(
                    (getattr(base.__dict__.get(method_name), "__doc__", None) or "").strip()
                    for base in obj.__mro__
                    if method_name in base.__dict__
                )
                if not documented:
                    undocumented.append(f"{name}.{method_name}")
        assert not undocumented, (
            f"{package_name}: undocumented methods {undocumented}"
        )


class TestDocumentedSurface:
    """Names the README / architecture docs lean on must stay exported
    (and therefore docstring-gated by the checks above)."""

    def test_graphs_surface(self):
        import repro.graphs as graphs

        for name in (
            "ArrayGraph",
            "GraphConstructionPipeline",
            "GraphPipelineConfig",
            "augment_graph",
            "augment_pack",
            "build_original_pack",
            "centrality_matrix_block_diagonal",
        ):
            assert name in graphs.__all__, name

    def test_serve_surface(self):
        import repro.serve as serve

        for name in (
            "AddressScoringService",
            "CacheStore",
            "ClusterConfig",
            "ClusterScoringService",
            "ShardRouter",
            "SliceGraphCache",
            "WarmState",
            "encoder_version",
        ):
            assert name in serve.__all__, name

    def test_pipeline_batch_knobs(self):
        """Stage 4 always runs packed: the node budget is a module
        constant, and no config field switches batching off."""
        import dataclasses

        from repro.graphs import GraphPipelineConfig
        from repro.graphs.batched_centrality import DEFAULT_MAX_BATCH_NODES

        fields = {f.name for f in dataclasses.fields(GraphPipelineConfig)}
        assert not any("batch" in name for name in fields), fields
        assert DEFAULT_MAX_BATCH_NODES > 0


#: The per-node object model, confined to ``repro.graphs.reference``.
OBJECT_MODEL = {"AddressGraph", "GraphNode", "GraphEdge"}

#: Graph-construction and encoding entry points retired in favour of the
#: one packed path (``build_pack`` / ``augment_pack`` / ``encode_pack``).
RETIRED = {
    "slice_transactions",
    "augment_graphs",
    "batched_centrality_matrices",
    "pack_block_diagonal",
    "plan_packs",
    "build_arrays_from_index",
    "build_original_arrays",
    "build_original_graph",
    "extract_graphs",
    "extract_array_graphs",
    "encode_graphs",
    "encode_sequences",
}


#: Stage-1 paths replaced by the one column builder
#: (``build_original_pack`` over ``transaction_columns_of``).
RETIRED_STAGE1 = {
    "build_arrays_from_columns",
    "transaction_arrays",
    "clear_transaction_arrays",
}


def _names_outside_reference(names):
    """``module:line name`` for each class, function, import or
    attribute named in ``names`` under ``src/repro``, outside
    ``repro.graphs.reference``."""
    import repro

    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        module = ".".join(
            ("repro",) + path.relative_to(root).with_suffix("").parts
        )
        if module == "repro.graphs.reference":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                found = {node.name}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
            elif isinstance(node, ast.Attribute):
                found = {node.attr}
            elif isinstance(node, ast.Name):
                found = {node.id}
            else:
                continue
            for name in found & names:
                offenders.append(f"{module}:{node.lineno} {name}")
    return offenders


class TestOneGraphRepresentation:
    """Production code knows one graph representation (``ArrayGraph`` /
    ``GraphPack``); the object model lives only beside the oracles."""

    def test_object_model_confined_to_reference(self):
        offenders = _names_outside_reference(OBJECT_MODEL)
        assert not offenders, offenders

    @pytest.mark.parametrize("package_name", ["repro.graphs", "repro.gnn"])
    def test_retired_names_gone(self, package_name):
        module = importlib.import_module(package_name)
        for name in sorted(RETIRED | OBJECT_MODEL):
            assert name not in module.__all__, name
            assert not hasattr(module, name), name

    def test_retired_options_gone(self):
        from repro.graphs import GraphConstructionPipeline, augment_pack

        for method in ("build", "build_slices", "build_many_slices"):
            assert not hasattr(GraphConstructionPipeline, method), method
        assert list(inspect.signature(augment_pack).parameters) == ["pack"]


class TestOneStage1Builder:
    """Stage 1 has one production builder, fed the same way by both
    index kinds."""

    def test_retired_stage1_paths_gone(self):
        offenders = _names_outside_reference(
            RETIRED_STAGE1 | {"slice_transactions"}
        )
        assert not offenders, offenders

    def test_extract_does_not_branch_on_index_kind(self):
        from repro.graphs import pipeline

        tree = ast.parse(Path(pipeline.__file__).read_text())
        (extract,) = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_extract"
        ]
        probes = [
            node.func.id
            for node in ast.walk(extract)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"getattr", "hasattr", "isinstance", "type"}
        ]
        assert not probes, probes


#: Duplicate books of serving events, retired in favour of the
#: ``repro.obs`` registry.
RETIRED_BOOKS = {
    "pool_stats",
    "micro_batch_stats",
    "construction_report",
    "stage_report_from_timer",
}


class TestOneSetOfBooks:
    """Pool, micro-batch and stage events are recorded once, in the
    ``repro.obs`` registry; ``StageTimer`` is only the offline Table-V
    accumulator."""

    def test_retired_accessors_gone(self):
        offenders = _names_outside_reference(RETIRED_BOOKS)
        assert not offenders, offenders

    def test_stage_timer_neither_merges_nor_observes(self):
        from repro.utils.timer import StageTimer

        assert not hasattr(StageTimer, "merge")
        assert "observer" not in inspect.signature(StageTimer).parameters
        assert not hasattr(StageTimer(), "observer")

    def test_worker_results_carry_no_timer(self):
        from repro.serve import cluster

        tree = ast.parse(Path(cluster.__file__).read_text())
        functions = {
            node.name: node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        }
        (unpack,) = [
            node.targets[0]
            for node in ast.walk(functions["_collect"])
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Tuple)
            and isinstance(node.value, ast.Name)
            and node.value.id == "message"
        ]
        fields = [elt.id for elt in unpack.elts]
        assert fields == ["seq", "encoded", "error", "obs_payload"], fields
        results = [
            node.args[0]
            for node in ast.walk(functions["_worker_main"])
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "put"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "results"
        ]
        assert len(results) == 2  # the build result and the error path
        for result in results:
            assert isinstance(result, ast.Tuple)
            assert len(result.elts) == len(fields), ast.unparse(result)
            assert "timer" not in ast.unparse(result), ast.unparse(result)


class TestVersion:
    def test_version_string(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)
