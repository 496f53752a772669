"""Field-level effect extraction over the parsed corpus.

For every class method and top-level function, this module computes an
:class:`Effects` record — which ``Class.field`` names the code reads and
writes, which event types it publishes, where it draws from a
:class:`~repro.util.rng.RandomSource`, and which other corpus functions
it calls — then closes those records over the call graph so a handler's
effect set includes everything its helpers do.

Two closures are produced. :attr:`EffectIndex.closed` follows direct
call edges only and backs the F rules. :attr:`EffectIndex.covered`
additionally links stored-callback dispatch — invoking a non-method
attribute of a corpus instance (``transfer.on_cancel(transfer)``)
reaches every callable any function registered under that keyword name
(``on_cancel=lambda t: ...``). Name-keyed linkage is too coarse for
hazard rules but is required for the runtime crosscheck's observed ⊆
static claim, because completion callbacks run synchronously inside
whichever handler triggered them.

Extraction is deliberately an *over*-approximation (the runtime
crosscheck in :mod:`repro.devtools.simflow.runtime` asserts observed ⊆
static, so the static side must never under-report):

* Nested ``def``/``lambda`` bodies count toward the enclosing function.
  Handlers schedule deferred work through closures; attributing the
  closure's effects to the scheduler is conservative for hazard rules
  and required for the inline cases (sort keys, filters).
* Fetching a bound method (``self._beat`` without calling it) adds a
  call edge — the reference may be invoked later.
* Mutating calls on a field (``self._queue.append(...)``) count as a
  write of the field as well as a read.

Receiver types come from a small annotation-driven inference: ``self``,
annotated parameters, ``var = Class(...)`` constructor calls, field
types harvested from ``__init__`` assignments, ``Dict[key, Class]``
value types, and method/property return annotations — the same style of
resolution :mod:`repro.devtools.simlint.busgraph` uses for handlers.

Draw contracts: a ``# simflow: draws=0`` comment on (or directly above)
a ``def``, or a docstring containing a draw-neutrality phrase
("consumes no randomness", "zero-draw", "draw-free", "draw-neutral"),
declares the whole transitive closure of that function draw-free; rule
F003 enforces the declaration.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.devtools.simlint.busgraph import BusGraph, ClassInfo, _terminal, _unwrap_optional
from repro.devtools.simlint.registry import ModuleContext

#: Effect keys are ``(owner, name)``: owner is a class name for methods
#: or ``"<module-path>"`` for top-level functions.
EffectKey = Tuple[str, str]

#: RandomSource methods that consume draws from the stream.
#: ``raw_random`` returns the underlying draw callable, so fetching it is
#: treated as a draw site (the callable draws on every later call).
DRAW_METHODS = frozenset(
    {
        "random",
        "raw_random",
        "uniform",
        "randint",
        "randrange",
        "expovariate",
        "gauss",
        "lognormvariate",
        "weibullvariate",
        "paretovariate",
        "choice",
        "sample",
        "shuffle",
        "weighted_choice",
    }
)

#: RandomSource methods that derive child streams without drawing.
DERIVE_METHODS = frozenset({"substream", "from_derived", "derive_seed", "derive_seeds"})

#: Method names that mutate their receiver in place: a call through a
#: field (``self._queue.append(x)``) writes the field.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "rotate",
        "setdefault",
        "sort",
        "update",
    }
)

#: Docstring phrases that declare a function draw-free (the rack
#: substitution / placement draw-neutrality contracts from PR 9).
DRAW_FREE_PHRASES = (
    "consumes no randomness",
    "consumes no rng",
    "zero-draw",
    "draw-free",
    "draw-neutral",
)

#: Event published through an expression the extractor cannot resolve to
#: a constructor call; rules treat it as "unknown event".
DYNAMIC_PUBLISH = "<dynamic>"

_DRAWS_ZERO_RE = re.compile(r"#\s*simflow:\s*draws\s*=\s*0\b")


@dataclass(frozen=True)
class DrawSite:
    """One RNG draw, as a reportable location."""

    module: str
    line: int
    col: int
    detail: str  # e.g. "RandomSource.choice"


@dataclass(frozen=True)
class PublishOrigin:
    """Representative source location for one published event type."""

    module: str
    line: int
    col: int


@dataclass
class Effects:
    """What one function does, field-by-field."""

    key: EffectKey
    module: str
    line: int
    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    #: event type name -> representative publish site (first seen).
    publishes: Dict[str, PublishOrigin] = field(default_factory=dict)
    draws: List[DrawSite] = field(default_factory=list)
    calls: Set[EffectKey] = field(default_factory=set)
    #: Non-method callable attributes this function invokes on corpus
    #: instances (``transfer.on_cancel(transfer)``): stored-callback
    #: dispatch, resolved against the kwarg-registration registry.
    opaque_calls: Set[str] = field(default_factory=set)

    def merge(self, other: "Effects") -> bool:
        """Fold ``other``'s effects in; True when anything was new."""
        changed = False
        if not other.reads <= self.reads:
            self.reads |= other.reads
            changed = True
        if not other.writes <= self.writes:
            self.writes |= other.writes
            changed = True
        for event, origin in other.publishes.items():
            if event not in self.publishes:
                self.publishes[event] = origin
                changed = True
        known = set(self.draws)
        for site in other.draws:
            if site not in known:
                self.draws.append(site)
                known.add(site)
                changed = True
        if not other.opaque_calls <= self.opaque_calls:
            self.opaque_calls |= other.opaque_calls
            changed = True
        return changed


@dataclass(frozen=True)
class DrawContract:
    """A declared ``draws=0`` obligation on one function."""

    key: EffectKey
    module: str
    line: int
    origin: str  # "comment" or "docstring"


@dataclass
class EffectIndex:
    """Every function's direct and transitive effects, plus contracts."""

    direct: Dict[EffectKey, Effects] = field(default_factory=dict)
    closed: Dict[EffectKey, Effects] = field(default_factory=dict)
    #: Like ``closed``, but additionally linking stored-callback dispatch
    #: (``transfer.on_cancel(...)``) to every callable registered under
    #: the same keyword name anywhere in the corpus. Name-keyed linkage
    #: is far too coarse for the hazard rules — one completion callback
    #: would smear near-global effect sets over every handler pair — but
    #: it is exactly what soundness of the runtime crosscheck needs:
    #: callbacks run synchronously inside whichever handler triggered
    #: them, so their effects are observed under that handler's key.
    covered: Dict[EffectKey, Effects] = field(default_factory=dict)
    contracts: List[DrawContract] = field(default_factory=list)
    #: class -> field -> inferred class of the field's value.
    field_types: Dict[str, Dict[str, str]] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)

    def defining_class(self, cls: str, method: str) -> Optional[str]:
        """The class in ``cls``'s base chain that defines ``method``."""
        seen: Set[str] = set()
        current: Optional[str] = cls
        while current is not None and current not in seen:
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                return None
            if method in info.methods:
                return current
            current = info.bases[0].rsplit(".", 1)[-1] if info.bases else None
        return None

    def lookup(self, cls: str, method: str) -> Optional[Effects]:
        """Transitive effects of ``cls.method``, following inheritance."""
        owner = self.defining_class(cls, method)
        if owner is None:
            return None
        return self.closed.get((owner, method))

    def lookup_covered(self, cls: str, method: str) -> Optional[Effects]:
        """Like :meth:`lookup` but over the callback-linked closure."""
        owner = self.defining_class(cls, method)
        if owner is None:
            return None
        return self.covered.get((owner, method))

    def own_class_names(self, cls: str) -> Set[str]:
        """``cls`` plus its corpus base classes (field-prefix filter)."""
        names: Set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            if current in names:
                continue
            names.add(current)
            info = self.classes.get(current)
            if info is not None:
                stack.extend(base.rsplit(".", 1)[-1] for base in info.bases)
        return names


def _annotation_class(annotation: Optional[ast.AST], known: Set[str]) -> Optional[str]:
    """Class name out of an annotation, if it names a corpus class.

    String annotations are re-parsed both before and after unwrapping
    ``Optional`` — ``Optional["JobTracker"]`` keeps the quotes on the
    *inner* node, and missing that edge cost real call-graph coverage
    (the runtime crosscheck caught it).
    """
    if annotation is None:
        return None
    for _ in range(2):
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:  # pragma: no cover - malformed string annotation
                return None
        annotation = _unwrap_optional(annotation)
    name = _terminal(annotation)
    return name if name in known else None


def _dict_value_class(annotation: Optional[ast.AST], known: Set[str]) -> Optional[str]:
    """Value class of a ``Dict[key, Class]``-style annotation."""
    if annotation is None:
        return None
    annotation = _unwrap_optional(annotation)
    if not isinstance(annotation, ast.Subscript):
        return None
    base = _terminal(annotation.value)
    if base not in {"Dict", "dict", "Mapping", "MutableMapping", "defaultdict"}:
        return None
    if isinstance(annotation.slice, ast.Tuple) and annotation.slice.elts:
        return _annotation_class(annotation.slice.elts[-1], known)
    return None


class _Scope:
    """Name -> class bindings for one function (plus dict value types)."""

    def __init__(self) -> None:
        self.var_class: Dict[str, str] = {}
        self.dict_value: Dict[str, str] = {}


class _Extractor:
    """Shared extraction state over one corpus."""

    def __init__(self, modules: List[ModuleContext], graph: BusGraph) -> None:
        self.modules = modules
        self.graph = graph
        self.classes = graph.classes
        self.known = set(graph.classes)
        self.index = EffectIndex(classes=graph.classes)
        #: class -> field -> inferred value class (working table).
        self._ft: Dict[str, Dict[str, str]] = {}
        #: class -> field -> value class of a Dict-typed field.
        self.field_dict_value: Dict[str, Dict[str, str]] = {}
        #: module path -> top-level function names (for call edges).
        self.module_functions: Dict[str, Set[str]] = {}
        #: module path -> set of lines carrying ``# simflow: draws=0``.
        self.contract_lines: Dict[str, Set[int]] = {}
        #: kwarg name -> functions that passed a callable reference under
        #: it (``on_cancel=lambda t: ...`` registers the enclosing
        #: function as a possible target of ``<obj>.on_cancel(...)``).
        self._callback_regs: Dict[str, Set[EffectKey]] = {}

    # -- corpus scan ------------------------------------------------------------

    def build(self) -> EffectIndex:
        for module in self.modules:
            self.module_functions[module.path] = {
                node.name
                for node in module.tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            self.contract_lines[module.path] = _scan_contract_lines(module)
        # Field tables first (two passes: pass 2 resolves fields assigned
        # from other fields, e.g. ``self._pred = self._namenode.predictor``).
        for _ in range(2):
            for name in sorted(self.classes):
                self._harvest_fields(self.classes[name])
        self.index.field_types = {name: dict(table) for name, table in sorted(self._ft.items())}
        for module in self.modules:
            self._extract_module(module)
        self._close()
        return self.index

    # -- field typing -----------------------------------------------------------

    def _harvest_fields(self, info: ClassInfo) -> None:
        table = self._ft.setdefault(info.name, {})
        dict_table = self.field_dict_value.setdefault(info.name, {})
        for item in info.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                cls = _annotation_class(item.annotation, self.known)
                if cls is not None:
                    table.setdefault(item.target.id, cls)
                value_cls = _dict_value_class(item.annotation, self.known)
                if value_cls is not None:
                    dict_table.setdefault(item.target.id, value_cls)
        for method_name in sorted(info.methods):
            method = info.methods[method_name]
            scope = self._method_scope(info, method)
            for node in ast.walk(method):
                target: Optional[ast.AST] = None
                value: Optional[ast.AST] = None
                annotation: Optional[ast.AST] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value, annotation = node.target, node.value, node.annotation
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                cls = _annotation_class(annotation, self.known)
                if cls is None and value is not None:
                    cls = self._expr_class(value, info.name, scope)
                if cls is not None:
                    table.setdefault(target.attr, cls)
                value_cls = _dict_value_class(annotation, self.known)
                if value_cls is None and value is not None:
                    value_cls = self._expr_dict_value(value, info.name, scope)
                if value_cls is not None:
                    dict_table.setdefault(target.attr, value_cls)

    def _method_scope(
        self, info: Optional[ClassInfo], func: ast.AST, collect_locals: bool = False
    ) -> _Scope:
        scope = _Scope()
        if info is not None:
            scope.var_class["self"] = info.name
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        args = func.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            annotation = getattr(arg, "annotation", None)
            cls = _annotation_class(annotation, self.known)
            if cls is not None:
                scope.var_class.setdefault(arg.arg, cls)
            value_cls = _dict_value_class(annotation, self.known)
            if value_cls is not None:
                scope.dict_value.setdefault(arg.arg, value_cls)
        if collect_locals and not isinstance(func, ast.Lambda):
            self._collect_locals(func.body, info, scope)
        return scope

    def _collect_locals(
        self, body: List[ast.stmt], info: Optional[ClassInfo], scope: _Scope
    ) -> None:
        """Order-insensitive local binds (two passes for chains)."""
        assigns: List[Tuple[ast.AST, Optional[ast.AST], Optional[ast.AST]]] = []
        loops: List[Tuple[ast.AST, ast.AST]] = []
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    assigns.append((node.targets[0], node.value, None))
                elif isinstance(node, ast.AnnAssign):
                    assigns.append((node.target, node.value, node.annotation))
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    loops.append((node.target, node.iter))
                elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                    assigns.append((node.optional_vars, node.context_expr, None))
        cls_name = info.name if info is not None else None
        for _ in range(2):
            # ``for tracker in d.values()`` / ``for k, tracker in d.items()``
            # bind the loop variable to the dict's value class.
            for target, iterable in loops:
                if not (
                    isinstance(iterable, ast.Call)
                    and isinstance(iterable.func, ast.Attribute)
                    and iterable.func.attr in {"items", "values"}
                ):
                    continue
                value_cls = self._expr_dict_value(iterable.func.value, cls_name, scope)
                if value_cls is None:
                    continue
                bound: Optional[ast.AST] = None
                if iterable.func.attr == "values" and isinstance(target, ast.Name):
                    bound = target
                elif (
                    iterable.func.attr == "items"
                    and isinstance(target, ast.Tuple)
                    and target.elts
                ):
                    bound = target.elts[-1]
                if isinstance(bound, ast.Name):
                    scope.var_class.setdefault(bound.id, value_cls)
            for target, value, annotation in assigns:
                if not isinstance(target, ast.Name):
                    continue
                cls = _annotation_class(annotation, self.known)
                if cls is None and value is not None:
                    cls = self._expr_class(value, cls_name, scope)
                if cls is not None:
                    scope.var_class.setdefault(target.id, cls)
                value_cls = _dict_value_class(annotation, self.known)
                if value_cls is None and value is not None:
                    value_cls = self._expr_dict_value(value, cls_name, scope)
                if value_cls is not None:
                    scope.dict_value.setdefault(target.id, value_cls)

    # -- expression typing ------------------------------------------------------

    def _expr_class(
        self, expr: ast.AST, own_class: Optional[str], scope: _Scope
    ) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return scope.var_class.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._expr_class(expr.value, own_class, scope)
            if base is None:
                return None
            return self._member_class(base, expr.attr)
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                return func.id if func.id in self.known else None
            if isinstance(func, ast.Attribute):
                name = _terminal(func)
                if name in self.known and func.attr == name:
                    return name  # module-qualified constructor, e.g. events.NodeDown(...)
                base = self._expr_class(func.value, own_class, scope)
                if base is None:
                    return None
                return self._return_class(base, func.attr)
            return None
        if isinstance(expr, ast.Subscript):
            return self._expr_dict_value(expr.value, own_class, scope)
        if isinstance(expr, ast.Await):
            return self._expr_class(expr.value, own_class, scope)
        return None

    def _expr_dict_value(
        self, expr: ast.AST, own_class: Optional[str], scope: _Scope
    ) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return scope.dict_value.get(expr.id)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and own_class is not None
        ):
            return self.field_dict_value.get(own_class, {}).get(expr.attr)
        if isinstance(expr, ast.Call):
            func = expr.func
            # dict(sorted(trackers.items())) keeps the value type through
            # the rebuild — the registration-order idiom all the masters use.
            if isinstance(func, ast.Name) and func.id in {"dict", "sorted", "list"} and expr.args:
                return self._expr_dict_value(expr.args[0], own_class, scope)
            if isinstance(func, ast.Attribute) and func.attr in {"items", "values"}:
                return self._expr_dict_value(func.value, own_class, scope)
        return None

    def _member_class(self, cls: str, attr: str) -> Optional[str]:
        """Class of ``<cls instance>.attr`` — field type or property return."""
        seen: Set[str] = set()
        current: Optional[str] = cls
        while current is not None and current not in seen:
            seen.add(current)
            found = self._ft.get(current, {}).get(attr)
            if found is not None:
                return found
            info = self.classes.get(current)
            if info is None:
                return None
            method = info.methods.get(attr)
            if method is not None and isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return _annotation_class(method.returns, self.known)
            current = info.bases[0].rsplit(".", 1)[-1] if info.bases else None
        return None

    def _return_class(self, cls: str, method_name: str) -> Optional[str]:
        seen: Set[str] = set()
        current: Optional[str] = cls
        while current is not None and current not in seen:
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                return None
            method = info.methods.get(method_name)
            if method is not None and isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return _annotation_class(method.returns, self.known)
            current = info.bases[0].rsplit(".", 1)[-1] if info.bases else None
        return None

    # -- effect extraction ------------------------------------------------------

    def _extract_module(self, module: ModuleContext) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = (f"<{module.path}>", node.name)
                self._extract_function(key, None, node, module)
            elif isinstance(node, ast.ClassDef):
                info = self.classes.get(node.name)
                if info is None or info.module != module.path:
                    continue  # shadowed duplicate class name; first wins
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._extract_function((node.name, item.name), info, item, module)

    def _extract_function(
        self,
        key: EffectKey,
        info: Optional[ClassInfo],
        func: ast.AST,
        module: ModuleContext,
    ) -> None:
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        effects = Effects(key=key, module=module.path, line=func.lineno)
        scope = self._method_scope(info, func, collect_locals=True)
        own_class = info.name if info is not None else None

        # Pre-pass: targets that imply a read as well as a write.
        aug_reads: Set[int] = set()
        subscript_writes: Set[int] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Attribute):
                    aug_reads.add(id(node.target))
                elif isinstance(node.target, ast.Subscript) and isinstance(
                    node.target.value, ast.Attribute
                ):
                    subscript_writes.add(id(node.target.value))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Subscript) and isinstance(
                            sub.value, ast.Attribute
                        ):
                            subscript_writes.add(id(sub.value))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Attribute
                    ):
                        subscript_writes.add(id(target.value))

        for node in ast.walk(func):
            if isinstance(node, ast.Attribute):
                self._record_attribute(
                    node,
                    effects,
                    own_class,
                    scope,
                    force_read=id(node) in aug_reads,
                    force_write=id(node) in subscript_writes,
                )
            elif isinstance(node, ast.Call):
                self._record_call(node, effects, own_class, scope, module)
        existing = self.index.direct.get(key)
        if existing is not None:
            existing.merge(effects)  # e.g. single-dispatch overloads sharing a name
        else:
            self.index.direct[key] = effects
        self._record_contract(key, func, module)

    def _record_attribute(
        self,
        node: ast.Attribute,
        effects: Effects,
        own_class: Optional[str],
        scope: _Scope,
        force_read: bool,
        force_write: bool,
    ) -> None:
        base = self._expr_class(node.value, own_class, scope)
        if base is None:
            return
        qualified = f"{base}.{node.attr}"
        is_method = self._is_plain_method(base, node.attr)
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            effects.writes.add(qualified)
            if force_read:
                effects.reads.add(qualified)
            if is_method:  # property setter: its body runs on assignment
                effects.calls.add((base, node.attr))
            return
        if is_method:
            # Bound-method reference (callback/property): follow the body.
            effects.calls.add((base, node.attr))
            if self._is_property(base, node.attr):
                effects.reads.add(qualified)
        else:
            effects.reads.add(qualified)
        if force_write:
            effects.writes.add(qualified)

    def _is_plain_method(self, cls: str, attr: str) -> bool:
        seen: Set[str] = set()
        current: Optional[str] = cls
        while current is not None and current not in seen:
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                return False
            if attr in info.methods:
                return True
            current = info.bases[0].rsplit(".", 1)[-1] if info.bases else None
        return False

    def _is_property(self, cls: str, attr: str) -> bool:
        owner = self.index.defining_class(cls, attr)
        if owner is None:
            return False
        method = self.classes[owner].methods[attr]
        for decorator in method.decorator_list:
            name = _terminal(decorator)
            if name in {"property", "cached_property"} or (
                isinstance(decorator, ast.Attribute) and decorator.attr in {"setter", "getter"}
            ):
                return True
        return False

    def _record_call(
        self,
        node: ast.Call,
        effects: Effects,
        own_class: Optional[str],
        scope: _Scope,
        module: ModuleContext,
    ) -> None:
        # Callable references passed as keyword arguments register the
        # enclosing function as a stored-callback target under the kwarg
        # name (lambda bodies fold into the enclosing function already).
        for keyword in node.keywords:
            if keyword.arg is not None and isinstance(
                keyword.value, (ast.Lambda, ast.Attribute, ast.Name)
            ):
                self._callback_regs.setdefault(keyword.arg, set()).add(effects.key)
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self.module_functions.get(module.path, set()):
                effects.calls.add((f"<{module.path}>", func.id))
            return
        if not isinstance(func, ast.Attribute):
            return
        receiver = func.value
        base = self._expr_class(receiver, own_class, scope)
        if func.attr == "publish" and node.args:
            arg = node.args[0]
            event: str = DYNAMIC_PUBLISH
            if isinstance(arg, ast.Call):
                name = _terminal(arg.func)
                if name is not None and name in self.graph.events:
                    event = name
            elif isinstance(arg, ast.Name):
                cls = scope.var_class.get(arg.id)
                if cls is not None and cls in self.graph.events:
                    event = cls
            effects.publishes.setdefault(
                event, PublishOrigin(module=module.path, line=node.lineno, col=node.col_offset)
            )
        if base is None:
            return
        if base == "RandomSource":
            if func.attr in DRAW_METHODS:
                effects.draws.append(
                    DrawSite(
                        module=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                        detail=f"RandomSource.{func.attr}",
                    )
                )
            return
        if self._is_plain_method(base, func.attr):
            effects.calls.add((base, func.attr))
        elif func.attr in MUTATOR_METHODS and isinstance(receiver, ast.Attribute):
            receiver_base = self._expr_class(receiver.value, own_class, scope)
            if receiver_base is not None:
                effects.writes.add(f"{receiver_base}.{receiver.attr}")
        else:
            # Invoking a non-method attribute of a corpus instance is
            # stored-callback dispatch; link it to every registration
            # under the same name during closure.
            effects.opaque_calls.add(func.attr)

    def _record_contract(self, key: EffectKey, func: ast.AST, module: ModuleContext) -> None:
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        lines = self.contract_lines.get(module.path, set())
        candidates = {func.lineno, func.lineno - 1}
        candidates.update(d.lineno for d in func.decorator_list)
        origin: Optional[str] = None
        if candidates & lines:
            origin = "comment"
        else:
            doc = (ast.get_docstring(func) or "").lower()
            if any(phrase in doc for phrase in DRAW_FREE_PHRASES):
                origin = "docstring"
        if origin is not None:
            self.index.contracts.append(
                DrawContract(key=key, module=module.path, line=func.lineno, origin=origin)
            )

    # -- transitive closure -----------------------------------------------------

    def _close(self) -> None:
        self.index.closed = self._fixpoint(link_callbacks=False)
        self.index.covered = self._fixpoint(link_callbacks=True)

    def _fixpoint(self, link_callbacks: bool) -> Dict[EffectKey, Effects]:
        closed: Dict[EffectKey, Effects] = {}
        for key in sorted(self.index.direct):
            direct = self.index.direct[key]
            clone = Effects(key=key, module=direct.module, line=direct.line)
            clone.merge(direct)
            clone.calls = set(direct.calls)
            if link_callbacks:
                for attr in sorted(direct.opaque_calls):
                    clone.calls |= self._callback_regs.get(attr, set())
            closed[key] = clone
        for _ in range(len(closed) + 1):
            changed = False
            for key in sorted(closed):
                record = closed[key]
                for callee in sorted(record.calls):
                    target = self._resolve_callee(callee)
                    if target is None or target == key:
                        continue
                    callee_record = closed.get(target)
                    if callee_record is None:
                        continue
                    if record.merge(callee_record):
                        changed = True
                    if not callee_record.calls <= record.calls:
                        record.calls |= callee_record.calls
                        changed = True
            if not changed:
                break
        return closed

    def _resolve_callee(self, callee: EffectKey) -> Optional[EffectKey]:
        if callee in self.index.direct:
            return callee
        cls, method = callee
        owner = self.index.defining_class(cls, method)
        if owner is not None and (owner, method) in self.index.direct:
            return (owner, method)
        return None


def _scan_contract_lines(module: ModuleContext) -> Set[int]:
    """Lines carrying a ``# simflow: draws=0`` comment token."""
    lines: Set[int] = set()
    source = "\n".join(module.lines) + "\n"
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [t for t in tokens if t.type == tokenize.COMMENT]
    except tokenize.TokenError:  # pragma: no cover - ast.parse succeeded already
        comments = []
    for token in comments:
        if _DRAWS_ZERO_RE.search(token.string):
            lines.add(token.start[0])
    return lines


def build_index(modules: List[ModuleContext], graph: BusGraph) -> EffectIndex:
    """Build (or fetch the cached) effect index for one corpus.

    The index is cached on the graph object so the four F rules sharing
    one :func:`~repro.devtools.simlint.engine.lint_paths` run pay for
    extraction once.
    """
    cached = getattr(graph, "_simflow_index", None)
    if cached is not None:
        return cached
    index = _Extractor(modules, graph).build()
    graph._simflow_index = index  # type: ignore[attr-defined]
    return index


def effects_to_json(index: EffectIndex) -> Dict[str, object]:
    """Stable JSON view of the effect index (the CI artifact)."""
    functions = {}
    for key in sorted(index.closed):
        record = index.closed[key]
        owner, name = key
        functions[f"{owner}.{name}"] = {
            "module": record.module,
            "line": record.line,
            "reads": sorted(record.reads),
            "writes": sorted(record.writes),
            "publishes": sorted(record.publishes),
            "draws": [
                {"module": s.module, "line": s.line, "detail": s.detail}
                for s in record.draws
            ],
            "calls": sorted(f"{c}.{m}" for c, m in record.calls),
        }
    return {
        "version": 1,
        "functions": functions,
        "contracts": [
            {
                "function": f"{c.key[0]}.{c.key[1]}",
                "module": c.module,
                "line": c.line,
                "origin": c.origin,
            }
            for c in sorted(index.contracts, key=lambda c: (c.module, c.line))
        ],
    }


__all__ = [
    "DRAW_METHODS",
    "DERIVE_METHODS",
    "DYNAMIC_PUBLISH",
    "DrawContract",
    "DrawSite",
    "EffectIndex",
    "EffectKey",
    "Effects",
    "build_index",
    "effects_to_json",
]
