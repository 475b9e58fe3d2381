"""The repository's registered lint rules.

Each rule encodes one invariant the test suite cannot watch everywhere at
once; see the class docstrings for what each catches and why it matters.
Rules self-register into :data:`repro.lint.engine.RULES` at import time,
so adding a rule is: subclass :class:`~repro.lint.engine.Rule`, decorate
with :func:`~repro.lint.engine.register`, done — ``repro.cli check`` and
the smoke step pick it up automatically.

Every rule is exercised by a seeded-violation fixture under
``tests/lint/fixtures/`` proving it fires, and the repository itself must
pass the full set clean (``python -m repro.cli check``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .engine import Finding, ParsedModule, Project, Rule, register

__all__ = [
    "AllExportsRule",
    "DtypeDisciplineRule",
    "FrozenMutationRule",
    "LockDisciplineRule",
    "MutableDefaultRule",
    "RegistryDocsRule",
    "SocketDisciplineRule",
    "SpanDisciplineRule",
    "UnpicklablePointRule",
    "UnseededRngRule",
]


# --------------------------------------------------------------------------- #
# Shared AST helpers
# --------------------------------------------------------------------------- #
def _dotted(node: ast.AST) -> str:
    """Dotted name of a Name/Attribute chain (``np.random.rand``), or ''."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _functions(module: ParsedModule) -> Iterator[ast.AST]:
    for node in module.nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _self_attr(node: ast.AST) -> Optional[str]:
    """``attr`` when ``node`` is ``self.<attr>``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


_LOCK_CONSTRUCTORS = {
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
}


# --------------------------------------------------------------------------- #
# R1 — lock discipline
# --------------------------------------------------------------------------- #
@register
class LockDisciplineRule(Rule):
    """An attribute guarded by a lock somewhere must be guarded everywhere.

    For every class owning a lock attribute (``self._lock = threading.Lock()``
    and friends), any instance attribute that is assigned under ``with
    self._lock:`` in one method must not be assigned outside such a block in
    any other method — the classic torn-counter/teared-map race in
    ``repro.serve`` and :class:`~repro.session.ResultStore`.

    Conventions honored: ``__init__`` publishes before sharing, so its
    writes are exempt; methods named ``*_locked`` document that their caller
    already holds the lock; nested callback functions are skipped (their
    execution context is not the enclosing method's).  Container-element
    mutation (``self._map[k] = v``) is the runtime tracer's job
    (:class:`repro.lint.locktrace.GuardedMapping`), not this rule's.
    """

    name = "lock-discipline"
    description = (
        "attributes assigned under a lock in one method must not be "
        "assigned unguarded elsewhere in the class"
    )

    def check_module(self, module: ParsedModule, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in module.nodes:
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node))
        return findings

    def _lock_attrs(self, cls: ast.ClassDef) -> Set[str]:
        locks: Set[str] = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                ctor = _dotted(node.value.func).rsplit(".", 1)[-1]
                if ctor in _LOCK_CONSTRUCTORS:
                    for target in node.targets:
                        attr = _self_attr(target)
                        if attr is not None:
                            locks.add(attr)
        return locks

    def _collect_writes(
        self,
        body: Iterable[ast.stmt],
        locks: Set[str],
        held: Tuple[str, ...],
        out: List[Tuple[str, int, Tuple[str, ...]]],
    ) -> None:
        """Record every ``self.<attr>`` assignment with the locks held there."""
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested definitions run in another context
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        out.append((attr, stmt.lineno, held))
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                attr = _self_attr(stmt.target)
                if attr is not None:
                    out.append((attr, stmt.lineno, held))
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired = tuple(
                    attr
                    for item in stmt.items
                    for attr in [_self_attr(item.context_expr)]
                    if attr is not None and attr in locks
                )
                self._collect_writes(stmt.body, locks, held + acquired, out)
                continue
            for field in ("body", "orelse", "finalbody", "handlers"):
                children = getattr(stmt, field, None)
                if children:
                    blocks = [
                        child.body if isinstance(child, ast.ExceptHandler) else [child]
                        for child in children
                    ]
                    for block in blocks:
                        self._collect_writes(block, locks, held, out)

    def _check_class(
        self, module: ParsedModule, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        locks = self._lock_attrs(cls)
        if not locks:
            return
        writes: Dict[str, List[Tuple[str, int, Tuple[str, ...]]]] = {}
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            collected: List[Tuple[str, int, Tuple[str, ...]]] = []
            self._collect_writes(method.body, locks, (), collected)
            for attr, lineno, held in collected:
                writes.setdefault(attr, []).append((method.name, lineno, held))
        guarded: Dict[str, Tuple[str, str]] = {}
        for attr, sites in writes.items():
            for method_name, _, held in sites:
                if held:
                    guarded[attr] = (held[-1], method_name)
                    break
        for attr, sites in writes.items():
            if attr not in guarded or attr in locks:
                continue
            lock, guarded_in = guarded[attr]
            for method_name, lineno, held in sites:
                if held or method_name == "__init__" or method_name.endswith("_locked"):
                    continue
                yield module.finding(
                    self.name,
                    lineno,
                    f"{cls.name}.{attr} is written under self.{lock} in "
                    f"{guarded_in}() but unguarded here in {method_name}()",
                )


# --------------------------------------------------------------------------- #
# R2 — no unseeded RNG on golden-model paths
# --------------------------------------------------------------------------- #
@register
class UnseededRngRule(Rule):
    """No global-state RNG draws where bit-for-bit reproducibility is law.

    On the golden-model paths (``snn/``, ``kernels/``, engine modules) and
    the serving tiers replaying them (``serve/``, ``net/`` — where the
    cluster-equality gates assert bit-for-bit results) every random draw
    must come from an explicitly seeded generator object
    (``np.random.default_rng(seed)``, ``random.Random(seed)``): a single
    ``np.random.rand()`` or ``random.random()`` makes results depend on
    global interpreter state and silently breaks every equality gate.
    The builtin ``hash()`` is flagged too: Python salts the hash of ``str``
    and ``bytes`` per process (``PYTHONHASHSEED``), so a seed derived from
    it differs from one process to the next; derive seeds with
    ``zlib.crc32`` or :mod:`hashlib` instead.
    """

    name = "unseeded-rng"
    description = (
        "no np.random.<fn> / bare random.<fn> global-state draws and no "
        "builtin hash() in snn/, kernels/, serve/, net/ or engine modules"
    )

    _NUMPY_ALLOWED = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"}
    _STDLIB_ALLOWED = {"Random", "SystemRandom"}

    def _in_scope(self, module: ParsedModule) -> bool:
        parts = module.rel_path.split("/")
        return (
            "snn" in parts
            or "kernels" in parts
            or "serve" in parts
            or "net" in parts
            or "engine" in parts[-1]
        )

    def check_module(self, module: ParsedModule, project: Project) -> Iterable[Finding]:
        if not self._in_scope(module):
            return ()
        findings: List[Finding] = []
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            head, _, fn = chain.rpartition(".")
            if head in ("np.random", "numpy.random") and fn not in self._NUMPY_ALLOWED:
                findings.append(
                    module.finding(
                        self.name,
                        node,
                        f"{chain}() draws from the global NumPy RNG; use a "
                        f"seeded np.random.default_rng(...) generator",
                    )
                )
            elif head == "random" and fn not in self._STDLIB_ALLOWED:
                findings.append(
                    module.finding(
                        self.name,
                        node,
                        f"{chain}() uses global random-module state; use a "
                        f"seeded random.Random(...) instance",
                    )
                )
            elif chain == "hash":
                findings.append(
                    module.finding(
                        self.name,
                        node,
                        "builtin hash() is salted per process for str and "
                        "bytes; use zlib.crc32 or hashlib for a reproducible "
                        "seed",
                    )
                )
        return findings


# --------------------------------------------------------------------------- #
# R3 — dtype discipline
# --------------------------------------------------------------------------- #
@register
class DtypeDisciplineRule(Rule):
    """Functions taking a numerics policy must not hardcode a dtype.

    A function parameterized on :class:`~repro.snn.numerics.NumericsPolicy`
    (or a ``dtype`` argument) exists so callers choose the precision; a
    literal ``np.float64``/``np.float32``/``dtype=float`` inside its body
    silently pins one branch of the policy and breaks fp32 paths in ways
    only an accuracy sweep would notice.
    """

    name = "dtype-discipline"
    description = (
        "no literal np.float64/np.float32/dtype=float in functions that "
        "take a NumericsPolicy or dtype parameter"
    )

    _PARAM_NAMES = {"policy", "numerics", "dtype"}
    _PINNED = {"np.float64", "numpy.float64", "np.float32", "numpy.float32"}

    def _takes_policy(self, func: ast.AST) -> bool:
        args = func.args
        every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for arg in every:
            if arg.arg in self._PARAM_NAMES:
                return True
            if arg.annotation is not None and "NumericsPolicy" in ast.dump(
                arg.annotation
            ):
                return True
        return False

    def check_module(self, module: ParsedModule, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for func in _functions(module):
            if not self._takes_policy(func):
                continue
            # Only the body: the signature legitimately states the reference
            # default (``dtype: np.dtype = np.float64``) — the invariant is
            # that the *body* derives everything from the parameter.
            for node in (n for stmt in func.body for n in ast.walk(stmt)):
                if isinstance(node, ast.Attribute) and _dotted(node) in self._PINNED:
                    findings.append(
                        module.finding(
                            self.name,
                            node,
                            f"{func.name}() takes a numerics/dtype parameter "
                            f"but hardcodes {_dotted(node)}; derive the dtype "
                            f"from the parameter",
                        )
                    )
                elif (
                    isinstance(node, ast.keyword)
                    and node.arg == "dtype"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "float"
                ):
                    findings.append(
                        module.finding(
                            self.name,
                            node.value,
                            f"{func.name}() takes a numerics/dtype parameter "
                            f"but passes dtype=float; derive the dtype from "
                            f"the parameter",
                        )
                    )
        return findings


# --------------------------------------------------------------------------- #
# R4 — picklable sweep point functions
# --------------------------------------------------------------------------- #
@register
class UnpicklablePointRule(Rule):
    """``SweepSpec.point`` must be a module-level function.

    Process pools pickle the point function; a lambda or
    a closure pickles on no platform and fails only when someone first runs
    the sweep with ``--backend process`` — far from where it was written.
    (``finalize=`` may stay a lambda: only ``point`` crosses processes.)
    """

    name = "unpicklable-point"
    description = (
        "SweepSpec point functions must be module-level (picklable), "
        "not lambdas or closures"
    )

    def _nested_function_names(self, module: ParsedModule) -> Set[str]:
        nested: Set[str] = set()
        for outer in _functions(module):
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(
                    inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    nested.add(inner.name)
        return nested

    def check_module(self, module: ParsedModule, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        nested = self._nested_function_names(module)
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            is_spec = _dotted(node.func).rsplit(".", 1)[-1] == "SweepSpec"
            candidates: List[ast.expr] = []
            for keyword in node.keywords:
                if keyword.arg == "point":
                    candidates.append(keyword.value)
            if is_spec and len(node.args) >= 3:
                candidates.append(node.args[2])  # SweepSpec(name, space, point)
            for value in candidates:
                if isinstance(value, ast.Lambda):
                    findings.append(
                        module.finding(
                            self.name,
                            value,
                            "sweep point function is a lambda; the process "
                            "backend cannot pickle it — use a module-level "
                            "function",
                        )
                    )
                elif isinstance(value, ast.Name) and value.id in nested:
                    findings.append(
                        module.finding(
                            self.name,
                            value,
                            f"sweep point function {value.id!r} is defined "
                            f"inside another function (a closure); the "
                            f"process backend cannot pickle it",
                        )
                    )
        return findings


# --------------------------------------------------------------------------- #
# R5 — no mutation of hashed frozen arrays
# --------------------------------------------------------------------------- #
@register
class FrozenMutationRule(Rule):
    """Frozen, fingerprint-hashed arrays must never be thawed or written.

    Weight arrays are frozen (``array.flags.writeable = False``) once their
    fingerprint enters the result-store keys; re-enabling writes
    (``.flags.writeable = True``) or mutating a name bound to a network's
    ``.weights`` in place silently invalidates every cached result hashed
    from the old bytes.
    """

    name = "frozen-mutation"
    description = (
        "no .flags.writeable = True, and no in-place writes to names "
        "bound from .weights arrays"
    )

    def check_module(self, module: ParsedModule, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in module.nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        _dotted(target).endswith(".flags.writeable")
                        and isinstance(node.value, ast.Constant)
                        and node.value.value is True
                    ):
                        findings.append(
                            module.finding(
                                self.name,
                                node,
                                "re-enables writes on a frozen array; its "
                                "fingerprint was hashed from the frozen bytes",
                            )
                        )
        for func in _functions(module):
            frozen: Set[str] = set()
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    if (
                        len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)
                        and isinstance(node.value, ast.Attribute)
                        and node.value.attr == "weights"
                    ):
                        frozen.add(node.targets[0].id)
                        continue
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in frozen
                        ):
                            findings.append(
                                module.finding(
                                    self.name,
                                    node,
                                    f"element write to {target.value.id!r}, "
                                    f"bound from a .weights array that may be "
                                    f"frozen and fingerprint-hashed; copy it "
                                    f"first",
                                )
                            )
                elif isinstance(node, ast.AugAssign):
                    name = node.target.id if isinstance(node.target, ast.Name) else None
                    if name in frozen:
                        findings.append(
                            module.finding(
                                self.name,
                                node,
                                f"in-place write to {name!r}, bound from a "
                                f".weights array that may be frozen and "
                                f"fingerprint-hashed; copy it first",
                            )
                        )
        return findings


# --------------------------------------------------------------------------- #
# R6 — registry/doc consistency
# --------------------------------------------------------------------------- #
@register
class RegistryDocsRule(Rule):
    """Every registered scenario/sweep name stays documented.

    Names enter the registries via ``add("name", kind, figure, description,
    ...)`` inside ``_build_scenarios`` and via
    ``register_sweep(SweepSpec(name=..., description=...))``.  Each must
    appear in ``README.md`` (users discover scenarios there) and carry a
    non-empty description (``Session.describe`` and ``--list-scenarios``
    render it).
    """

    name = "registry-docs"
    description = (
        "registered scenario/sweep names must appear in README.md and "
        "carry a non-empty description"
    )

    def _registrations(
        self, module: ParsedModule
    ) -> Iterator[Tuple[str, int, bool]]:
        """Yield (name, line, has_description) per registration call."""
        builders = [
            func
            for func in _functions(module)
            if func.name == "_build_scenarios"
        ]
        for builder in builders:
            for node in ast.walk(builder):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "add"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    described = (
                        len(node.args) > 3
                        and isinstance(node.args[3], ast.Constant)
                        and bool(node.args[3].value)
                    )
                    yield node.args[0].value, node.lineno, described
        for node in module.nodes:
            if not (
                isinstance(node, ast.Call)
                and _dotted(node.func).rsplit(".", 1)[-1] == "register_sweep"
                and node.args
                and isinstance(node.args[0], ast.Call)
                and _dotted(node.args[0].func).rsplit(".", 1)[-1] == "SweepSpec"
            ):
                continue
            spec = node.args[0]
            name = described = None
            for keyword in spec.keywords:
                if keyword.arg == "name" and isinstance(keyword.value, ast.Constant):
                    name = keyword.value.value
                if keyword.arg == "description":
                    described = bool(
                        not isinstance(keyword.value, ast.Constant)
                        or keyword.value.value
                    )
            if isinstance(name, str):
                yield name, node.lineno, bool(described)

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for module in project.modules:
            for name, line, described in self._registrations(module):
                if name not in project.readme:
                    findings.append(
                        module.finding(
                            self.name,
                            line,
                            f"registered name {name!r} is not documented in "
                            f"README.md",
                        )
                    )
                if not described:
                    findings.append(
                        module.finding(
                            self.name,
                            line,
                            f"registered name {name!r} has no description; "
                            f"describe()/--list-scenarios would render it "
                            f"blank",
                        )
                    )
        return findings


# --------------------------------------------------------------------------- #
# R7 — mutable default arguments
# --------------------------------------------------------------------------- #
@register
class MutableDefaultRule(Rule):
    """No mutable default argument values.

    A ``def f(rows=[])`` default is created once and shared by every call;
    the first caller that appends poisons all later calls.  Sweeps and
    scenarios pass row lists and parameter dicts around constantly, so this
    classic stays registered rather than remembered.
    """

    name = "mutable-default"
    description = "no list/dict/set literals (or constructors) as argument defaults"

    _CONSTRUCTORS = {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict"}

    def _is_mutable(self, default: ast.expr) -> bool:
        if isinstance(default, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(default, ast.Call)
            and _dotted(default.func).rsplit(".", 1)[-1] in self._CONSTRUCTORS
        )

    def check_module(self, module: ParsedModule, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for func in _functions(module):
            defaults = list(func.args.defaults) + [
                default for default in func.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    findings.append(
                        module.finding(
                            self.name,
                            default,
                            f"{func.name}() has a mutable default argument; "
                            f"use None and create it inside the function",
                        )
                    )
        return findings


# --------------------------------------------------------------------------- #
# R8 — __all__ matches what the module actually binds
# --------------------------------------------------------------------------- #
@register
class AllExportsRule(Rule):
    """``__all__`` and the module's bindings must agree.

    Two directions: every ``__all__`` name must be bound at module level
    (or resolvable through a module ``__getattr__`` — a name counts as
    dynamically resolvable when the module defines ``__getattr__`` and the
    name appears as a string literal, e.g. in a lazy-export tuple), and
    every public ``def``/``class`` written directly in a package
    ``__init__.py`` must appear in ``__all__`` (otherwise ``import *`` and
    the documented surface silently diverge).
    """

    name = "all-exports"
    description = (
        "__all__ names must be bound (or lazily resolvable) and public "
        "__init__ definitions must be exported"
    )

    def _assigned_names(self, target: ast.expr) -> Iterator[str]:
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._assigned_names(element)

    def check_module(self, module: ParsedModule, project: Project) -> Iterable[Finding]:
        all_node: Optional[ast.Assign] = None
        bound: Set[str] = set()
        has_getattr = False
        star_import = False
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(stmt.name)
                if stmt.name == "__getattr__":
                    has_getattr = True
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for name in self._assigned_names(target):
                        bound.add(name)
                        if name == "__all__":
                            all_node = stmt
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                bound.add(stmt.target.id)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    if alias.name == "*":
                        star_import = True
                    else:
                        bound.add(alias.asname or alias.name)
        if all_node is None or star_import:
            return ()
        if not isinstance(all_node.value, (ast.List, ast.Tuple)):
            return ()
        exported = [
            element.value
            for element in all_node.value.elts
            if isinstance(element, ast.Constant) and isinstance(element.value, str)
        ]
        dynamic: Set[str] = set()
        if has_getattr:
            dynamic = {
                node.value
                for node in module.nodes
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
            }
        findings: List[Finding] = []
        for name in exported:
            if name not in bound and name not in dynamic:
                findings.append(
                    module.finding(
                        self.name,
                        all_node,
                        f"__all__ exports {name!r} but the module never binds "
                        f"it (no matching def/class/import/assignment, and no "
                        f"__getattr__ naming it)",
                    )
                )
        if module.path.name == "__init__.py":
            for stmt in module.tree.body:
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")
                    and stmt.name not in exported
                ):
                    findings.append(
                        module.finding(
                            self.name,
                            stmt,
                            f"public {stmt.name!r} is defined in this package "
                            f"__init__ but missing from __all__",
                        )
                    )
        return findings


# --------------------------------------------------------------------------- #
# R9 — socket discipline
# --------------------------------------------------------------------------- #
@register
class SocketDisciplineRule(Rule):
    """Every socket the code opens must have a deterministic close path.

    The distributed tier (:mod:`repro.net`) holds listener and connection
    sockets across threads; a file descriptor that only closes when the
    garbage collector feels like it keeps ports bound between tests and
    masks shutdown bugs.  Any call that *creates* a socket
    (``socket.socket``, ``socket.create_server``,
    ``socket.create_connection``, ``socket.socketpair``) must either be
    the context expression of a ``with`` statement, or — when bound to a
    name — be closed on every path: a local name needs ``name.close()``
    inside a ``finally`` (or ``except``) block of the same function; a
    ``self.<attr>`` binding needs ``self.<attr>.close()`` in a teardown
    method (``close``/``stop``/``shutdown``/``__exit__``/``__del__``) or
    a ``finally``/``except`` block somewhere in the owning class.

    Sockets returned by ``accept()`` are deliberately not tracked: the
    accept loop hands them to a wrapper (e.g.
    :class:`~repro.net.framing.FramedConnection`) that owns the close,
    and *that* wrapper's own socket field is what this rule watches.

    The rule also polices **partial-I/O discipline** on the scatter-gather
    calls wire protocol v2 leans on: ``sendmsg``, ``recv_into`` and
    ``recvmsg_into`` all report how many bytes actually moved, and a call
    whose count is discarded (a bare expression statement) silently drops
    the tail of a frame under load — the worst kind of wire bug, invisible
    until buffers fill.  Their return value must be consumed.
    """

    name = "socket-discipline"
    description = (
        "sockets must be closed via context manager or close() on a "
        "finally/teardown path; sendmsg/recv_into/recvmsg_into byte counts "
        "must be consumed"
    )

    _CREATORS = {"create_connection", "create_server", "socketpair"}
    _TEARDOWN_METHODS = {"close", "stop", "shutdown", "__exit__", "__del__"}
    #: Socket calls that report a transferred-byte count the caller must
    #: check — partial completion is normal, not exceptional, for these.
    _PARTIAL_IO = {"sendmsg", "recv_into", "recvmsg_into"}

    def _is_creator(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        chain = _dotted(node.func)
        head, _, fn = chain.rpartition(".")
        if fn in self._CREATORS:
            return True
        return fn == "socket" and head.rsplit(".", 1)[-1] == "socket"

    def _record_target(
        self,
        target: ast.expr,
        lineno: int,
        local_out: List[Tuple[str, int]],
        self_out: List[Tuple[str, int]],
    ) -> None:
        if isinstance(target, ast.Name):
            local_out.append((target.id, lineno))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, lineno, local_out, self_out)
        else:
            attr = _self_attr(target)
            if attr is not None:
                self_out.append((attr, lineno))

    def _collect_creations(
        self,
        body: Iterable[ast.stmt],
        local_out: List[Tuple[str, int]],
        self_out: List[Tuple[str, int]],
    ) -> None:
        """Record every name a socket-creating call is bound to."""
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested definitions are analyzed on their own
            if isinstance(stmt, ast.Assign) and self._is_creator(stmt.value):
                for target in stmt.targets:
                    self._record_target(target, stmt.lineno, local_out, self_out)
            elif (
                isinstance(stmt, ast.AnnAssign)
                and stmt.value is not None
                and self._is_creator(stmt.value)
            ):
                self._record_target(stmt.target, stmt.lineno, local_out, self_out)
            for field in ("body", "orelse", "finalbody", "handlers"):
                children = getattr(stmt, field, None)
                if children:
                    blocks = [
                        child.body if isinstance(child, ast.ExceptHandler) else [child]
                        for child in children
                    ]
                    for block in blocks:
                        self._collect_creations(block, local_out, self_out)

    def _scan_closes(
        self, node: ast.AST, local_out: Set[str], self_out: Set[str]
    ) -> None:
        for call in ast.walk(node):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "close"
            ):
                owner = call.func.value
                if isinstance(owner, ast.Name):
                    local_out.add(owner.id)
                else:
                    attr = _self_attr(owner)
                    if attr is not None:
                        self_out.add(attr)

    def _record_closes(
        self,
        body: Iterable[ast.stmt],
        in_cleanup: bool,
        local_out: Set[str],
        self_out: Set[str],
    ) -> None:
        """Record names ``.close()``d on a cleanup (finally/except) path."""
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if in_cleanup:
                # Everything nested under a finally/except counts.
                self._scan_closes(stmt, local_out, self_out)
                continue
            if isinstance(stmt, ast.Try):
                self._record_closes(stmt.body, False, local_out, self_out)
                self._record_closes(stmt.orelse, False, local_out, self_out)
                for handler in stmt.handlers:
                    self._record_closes(handler.body, True, local_out, self_out)
                self._record_closes(stmt.finalbody, True, local_out, self_out)
                continue
            for field in ("body", "orelse"):
                children = getattr(stmt, field, None)
                if children:
                    self._record_closes(children, False, local_out, self_out)

    def check_module(self, module: ParsedModule, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for fn in _functions(module):
            findings.extend(self._check_function(module, fn))
        for node in module.nodes:
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node))
        # Module-level sockets never have a per-call teardown path.
        local_new: List[Tuple[str, int]] = []
        self_new: List[Tuple[str, int]] = []
        self._collect_creations(module.tree.body, local_new, self_new)
        closed: Set[str] = set()
        self._record_closes(module.tree.body, False, closed, set())
        for name, lineno in local_new:
            if name not in closed:
                findings.append(
                    module.finding(
                        self.name,
                        lineno,
                        f"module-level socket {name!r} is never closed on a "
                        f"finally path; open it in a `with` block instead",
                    )
                )
        findings.extend(self._check_partial_io(module))
        return findings

    def _check_partial_io(self, module: ParsedModule) -> Iterator[Finding]:
        """Flag scatter-gather calls whose byte count is thrown away."""
        for node in module.nodes:
            if not isinstance(node, ast.Expr):
                continue
            call = node.value
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in self._PARTIAL_IO
            ):
                yield module.finding(
                    self.name,
                    node.lineno,
                    f"{call.func.attr}() returns the bytes actually "
                    f"transferred; discarding it loses partial "
                    f"{'writes' if call.func.attr == 'sendmsg' else 'reads'} "
                    f"— assign and check the count",
                )

    def _check_function(
        self, module: ParsedModule, fn: ast.AST
    ) -> Iterator[Finding]:
        local_new: List[Tuple[str, int]] = []
        self_new: List[Tuple[str, int]] = []  # handled by the class pass
        self._collect_creations(fn.body, local_new, self_new)
        if not local_new:
            return
        closed: Set[str] = set()
        self._record_closes(fn.body, False, closed, set())
        for name, lineno in local_new:
            if name not in closed:
                yield module.finding(
                    self.name,
                    lineno,
                    f"socket bound to {name!r} in {fn.name}() has no "
                    f"{name}.close() on a finally path; use `with` or close "
                    f"it in a finally block",
                )

    def _check_class(
        self, module: ParsedModule, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        created: List[Tuple[str, int, str]] = []
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local_new: List[Tuple[str, int]] = []
            self_new: List[Tuple[str, int]] = []
            self._collect_creations(method.body, local_new, self_new)
            created.extend((attr, lineno, method.name) for attr, lineno in self_new)
        if not created:
            return
        torn_down: Set[str] = set()
        scratch: Set[str] = set()
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            self._record_closes(
                method.body,
                method.name in self._TEARDOWN_METHODS,
                scratch,
                torn_down,
            )
        for attr, lineno, method_name in created:
            if attr not in torn_down:
                yield module.finding(
                    self.name,
                    lineno,
                    f"socket stored on self.{attr} in {cls.name}."
                    f"{method_name}() is never self.{attr}.close()d in a "
                    f"teardown method (close/stop/shutdown/__exit__/__del__) "
                    f"or finally block",
                )


# --------------------------------------------------------------------------- #
# R10 — trace spans are opened as context managers
# --------------------------------------------------------------------------- #
@register
class SpanDisciplineRule(Rule):
    """Trace spans must be opened via ``with tracer.span(...)``.

    A span opened as a bare call and closed by hand (``span = tracer.span``
    then ``start()``/``finish()`` pairs) leaks open the moment any path
    between the two raises or returns early — and an unfinished span keeps
    its whole trace from ever completing, silently hollowing out the
    observability the tracer exists to provide.  The ``with`` form closes
    the span on every exit path, including exceptions (which also mark the
    span's status).

    Two findings: a ``*tracer*.span(...)`` call that is not the context
    expression of a ``with`` statement, and any ``start()``/``finish()``
    call on a name bound from such a call.  Intervals whose open and close
    genuinely live on different threads (the request root span, the
    coordinator's dispatch span) use the explicitly-named
    :meth:`~repro.obs.Tracer.open_span` escape hatch, which this rule
    deliberately does not police.
    """

    name = "span-discipline"
    description = (
        "tracer.span(...) must be a `with` context expression; no bare "
        "start()/finish() pairs on span objects"
    )

    def _is_span_call(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "span"
            and "tracer" in _dotted(node.func.value).lower()
        )

    def check_module(self, module: ParsedModule, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        with_exprs: Set[int] = set()
        for node in module.nodes:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_exprs.add(id(item.context_expr))
        span_names: Set[str] = set()
        for node in module.nodes:
            if isinstance(node, ast.Assign) and self._is_span_call(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        span_names.add(target.id)
            if self._is_span_call(node) and id(node) not in with_exprs:
                findings.append(
                    module.finding(
                        self.name,
                        node,
                        "span opened outside a `with` statement; bare spans "
                        "leak open on any early exit — use "
                        "`with tracer.span(...):`",
                    )
                )
        for node in module.nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("start", "finish")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in span_names
            ):
                findings.append(
                    module.finding(
                        self.name,
                        node,
                        f"bare {node.func.attr}() on span "
                        f"{node.func.value.id!r}; the `with` block owns the "
                        f"span lifecycle",
                    )
                )
        return findings
