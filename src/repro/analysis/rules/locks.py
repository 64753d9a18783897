"""lock-discipline: declared shared state is only written under its lock.

The serving layer is explicitly thread-aware: cluster lifecycle state
lives under ``ClusterScoringService._lock``, the worker pool's pending
builds under its own ``_lock``, the micro-batcher's queue under its
``_condition``, and each ``_Shard`` carries its own ``lock`` guarding
its caches, index slice, and version counter.  A class declares its
discipline with a class-body table::

    _LOCK_GUARDED = {
        "_lock": ("_chain", "_pool", "_synced_transactions"),
    }

and this rule then requires every write to a guarded attribute
(``self.x = ...``, ``self.x += ...``, ``del self.x``) and every direct
method call on one (``self.x.clear()`` — mutation through the
attribute) to sit lexically inside ``with self.<lock>``.  Two exemptions
mirror standard practice: ``__init__`` (the object is not shared yet)
and methods whose name ends in ``_locked`` (the documented
caller-holds-the-lock convention, e.g. ``apply_block_locked``).

The table also binds accesses *through receiver variables named after
the declaring class* anywhere in the same file — the per-shard locking
idiom, where the service iterates ``for shard in self.shards`` and
mutates shard state from outside the class.  With the table above
declared on ``_Shard``, ``shard.cache.put(...)`` or
``shard.version += 1`` must sit inside ``with shard.lock`` (receivers
match by name suffix: ``shard``, ``my_shard``; same ``__init__`` /
``*_locked`` exemptions).  Deeper attribute chains
(``shard.cache.stats.snapshot()``) are read-path idioms and stay out of
scope, as do bare method calls on the receiver (``shard.reset_trust()``
— the method body is checked at its definition via ``self``).

The rule's second half pins fork safety: no thread, pool, or executor
may be constructed at import time in :mod:`repro.serve` — pools must be
born inside methods, after ``fork`` can no longer duplicate them.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.context import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import FileRule, register

__all__ = ["LockDisciplineRule"]

_TABLE_NAME = "_LOCK_GUARDED"

_IMPORT_TIME_CONCURRENCY = {
    "threading.Thread",
    "threading.Timer",
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.thread.ThreadPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
    "multiprocessing.Process",
    "os.fork",
}


def _self_attribute(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _receiver_attribute(node: ast.AST) -> "Optional[Tuple[str, str]]":
    """``(receiver, attribute)`` for ``name.attr`` where name is not self."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id != "self"
    ):
        return node.value.id, node.attr
    return None


@register
class LockDisciplineRule(FileRule):
    """Enforce ``_LOCK_GUARDED`` write discipline and import-time fork safety."""

    rule_id = "lock-discipline"
    description = (
        "writes to attributes declared in _LOCK_GUARDED must happen "
        "inside `with <receiver>.<lock>` — via self in the declaring "
        "class, or via class-named receiver variables (shard.cache ...) "
        "anywhere in the file (or in __init__ / *_locked methods) — "
        "and repro.serve may not start threads or pools at import time"
    )
    scopes = ("repro.serve",)

    def check(self, context: FileContext) -> Iterator[Finding]:
        """Check guarded-attribute writes and import-time concurrency."""
        yield from self._check_import_time(context)
        tables: List[Tuple[str, Dict[str, str]]] = []
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ClassDef):
                table = self._guard_table(node)
                if table:
                    tables.append((node.name, table))
                    yield from self._check_class(context, node, table)
        if tables:
            yield from self._check_receivers(context, tables)

    # ------------------------------------------------------------------ #
    # Import-time concurrency
    # ------------------------------------------------------------------ #

    def _check_import_time(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = context.resolve(node.func)
            if dotted not in _IMPORT_TIME_CONCURRENCY:
                continue
            if not context.at_module_level(node):
                continue
            yield Finding(
                path=context.path,
                line=node.lineno,
                col=node.col_offset,
                rule_id=self.rule_id,
                message=(
                    f"{dotted} constructed at import time — threads/pools "
                    "in repro.serve must be created inside methods so "
                    "fork-started workers never inherit them"
                ),
            )

    # ------------------------------------------------------------------ #
    # Guarded attribute writes
    # ------------------------------------------------------------------ #

    def _guard_table(self, node: ast.ClassDef) -> Dict[str, str]:
        """``{attribute: lock_attribute}`` from a ``_LOCK_GUARDED`` table."""
        table: Dict[str, str] = {}
        for item in node.body:
            if not isinstance(item, ast.Assign):
                continue
            if not any(
                isinstance(target, ast.Name) and target.id == _TABLE_NAME
                for target in item.targets
            ):
                continue
            if not isinstance(item.value, ast.Dict):
                continue
            for key, value in zip(item.value.keys, item.value.values):
                if not (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(value, (ast.Tuple, ast.List))
                ):
                    continue
                for element in value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        table[element.value] = key.value
        return table

    def _check_class(
        self,
        context: FileContext,
        class_node: ast.ClassDef,
        table: Dict[str, str],
    ) -> Iterator[Finding]:
        for method in class_node.body:
            if not isinstance(
                method, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if method.name == "__init__" or method.name.endswith("_locked"):
                continue
            for node, attr in self._guarded_accesses(method, table):
                lock = table[attr]
                if self._under_lock(context, node, method, lock):
                    continue
                yield Finding(
                    path=context.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule_id=self.rule_id,
                    message=(
                        f"write to lock-guarded attribute {attr!r} in "
                        f"{class_node.name}.{method.name} outside `with "
                        f"self.{lock}` — hold the lock, or name the "
                        "method *_locked if every caller already does"
                    ),
                )

    def _guarded_accesses(
        self, method: ast.AST, table: Dict[str, str]
    ) -> List[Tuple[ast.AST, str]]:
        accesses: List[Tuple[ast.AST, str]] = []
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            elif isinstance(node, ast.Call):
                # Mutation through the attribute: self.<attr>.method(...)
                func = node.func
                if isinstance(func, ast.Attribute):
                    attr = _self_attribute(func.value)
                    if attr is not None and attr in table:
                        accesses.append((node, attr))
                continue
            else:
                continue
            for target in targets:
                attr = _self_attribute(target)
                if attr is not None and attr in table:
                    accesses.append((node, attr))
        return accesses

    def _under_lock(
        self,
        context: FileContext,
        node: ast.AST,
        method: ast.AST,
        lock: str,
    ) -> bool:
        for ancestor in context.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    if _self_attribute(item.context_expr) == lock:
                        return True
            if ancestor is method:
                break
        return False

    # ------------------------------------------------------------------ #
    # Guarded attribute writes through class-named receivers
    # ------------------------------------------------------------------ #

    def _check_receivers(
        self,
        context: FileContext,
        tables: "List[Tuple[str, Dict[str, str]]]",
    ) -> Iterator[Finding]:
        """The per-shard form of the discipline (see module docstring).

        A ``_LOCK_GUARDED`` table declared on a class also binds
        accesses through receiver variables *named after that class*
        anywhere in the same file: with the table on ``_Shard``,
        ``shard.cache.put(...)`` must sit inside ``with shard.lock``.
        The name-suffix match is deliberately narrow — it cannot see
        types, so it only fires on the idiomatic receiver spelling, and
        only on direct ``receiver.attr`` writes / ``receiver.attr.m()``
        calls (deeper chains are read-path idioms).
        """
        bindings = [
            (class_name.lstrip("_").lower(), class_name, table)
            for class_name, table in tables
        ]
        for node, receiver, attr in self._receiver_accesses(context.tree):
            for suffix, class_name, table in bindings:
                if attr not in table:
                    continue
                if not receiver.lower().lstrip("_").endswith(suffix):
                    continue
                lock = table[attr]
                if self._under_receiver_lock(context, node, receiver, lock):
                    break
                enclosing = self._enclosing_function(context, node)
                if enclosing is not None and (
                    enclosing.name == "__init__"
                    or enclosing.name.endswith("_locked")
                ):
                    break
                yield Finding(
                    path=context.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule_id=self.rule_id,
                    message=(
                        f"write to {class_name}-guarded attribute "
                        f"{attr!r} through {receiver!r} outside `with "
                        f"{receiver}.{lock}` — hold the receiver's "
                        "lock around shard-state mutation"
                    ),
                )
                break

    def _receiver_accesses(
        self, tree: ast.AST
    ) -> "List[Tuple[ast.AST, str, str]]":
        accesses: List[Tuple[ast.AST, str, str]] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            elif isinstance(node, ast.Call):
                # Mutation through the attribute: recv.<attr>.method(...)
                func = node.func
                if isinstance(func, ast.Attribute):
                    named = _receiver_attribute(func.value)
                    if named is not None:
                        accesses.append((node, named[0], named[1]))
                continue
            else:
                continue
            for target in targets:
                named = _receiver_attribute(target)
                if named is not None:
                    accesses.append((node, named[0], named[1]))
        return accesses

    def _under_receiver_lock(
        self,
        context: FileContext,
        node: ast.AST,
        receiver: str,
        lock: str,
    ) -> bool:
        for ancestor in context.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    expr = item.context_expr
                    if (
                        isinstance(expr, ast.Attribute)
                        and isinstance(expr.value, ast.Name)
                        and expr.value.id == receiver
                        and expr.attr == lock
                    ):
                        return True
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                break
        return False

    def _enclosing_function(
        self, context: FileContext, node: ast.AST
    ) -> "Optional[ast.AST]":
        for ancestor in context.ancestors(node):
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                return ancestor
        return None
