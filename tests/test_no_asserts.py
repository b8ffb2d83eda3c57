"""Rules of the package that the ROADMAP and README state, checked on its
syntax tree.

Production code does not cross-check itself with `assert` or `raise
AssertionError`: under `python -O` the first would vanish, and either turns
an impossible state into a crash instead of a result the independent gates
judge.  Only oracles.py, which the tests alone use, may do so.  The package
is stdlib-only, and only the property suites import the oracles; importing
the package loads neither them nor their sampler, and importing it or its
CLI loads neither `dataclasses` nor `inspect`, which every command would pay
for at start-up.  Every name a module imports is read in it, except in
`__init__`, which re-exports.  No module names `object.__setattr__`: a
value gets past the freeze only through `Value._set`, called in an
`__init__`, so no slot is written after its constructor returns.

Each re-exported module lists the public names it defines in its own
`__all__`, no name in two of them, and `nestlab.__all__` is their
concatenation.  The public surface is what production code uses: every
name in `nestlab.__all__` is read by a package module other than the
oracles, the suites, their sampler and `__init__`, or is listed with its
reason in `PUBLIC_ENTRY_POINTS`.  The same holds for every public method,
classmethod and property of a class those modules define, with
`PUBLIC_MEMBERS` for the listed ones.  A member whose name another class
also defines is read only through the production functions
`SHARED_NAME_READERS` names, each of which must read it on an object of
the member's class."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nestlab

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nestlab"

# names in __all__ that no production module reads, each with the reason it
# stays public
PUBLIC_ENTRY_POINTS = {
    "UnknownSuiteError": "raised by suites.run_suite, which the CLI calls",
    "is_bimodule": "a public predicate on operator spaces",
    "meet": "an L1 lattice operation, the dual of join",
    "rank": "called by the benchmark's factor workload",
    "span_of_rank_ones": "called by the benchmark's bimodule workload",
    "serialize_document": "writes the documents parse_document reads",
}

# public members of production classes that no production module reads,
# each with the reason it stays public
PUBLIC_MEMBERS = {
    "Subspace.contains_vector": "called by the benchmark's factor workload",
    "Matrix.from_rows": "called by the benchmark's bimodule and factor workloads",
    "RankOne.of": "called by the benchmark's factor workload",
}

# public members whose name another production class, or a builtin type
# (`list.insert`), also defines: a read of the name does not tell whose member
# it reads, so each counts as read only through the production functions
# listed here, and each of them must read it on an object that its syntax
# tree shows to be of the member's class (see `_typed_reads`)
SHARED_NAME_READERS = {
    "IntEchelon.insert": (
        "ratlin._echelon_from_rows", "ratlin.join", "ratlin.annihilator",
        "opspace._first_meet_vector",
    ),
    "Subspace.dim": ("ratlin.Subspace.basis",),
    "OperatorSpace.dim": ("documents._fmt_space",),
}
BUILTIN_TYPES = (list, tuple, dict, set, str, int)

# modules whose reads do not make a name production code: the oracles,
# suites and their sampler serve the tests, and __init__ only re-exports
NOT_PRODUCTION = {"oracles.py", "suites.py", "sampling.py", "__init__.py"}


def _nodes():
    """(path, node) for every node of every module of the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path, node


def _at(path: Path, node: ast.AST) -> str:
    return f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"


def _fail_at(what: str, found: list[str]) -> None:
    if found:
        pytest.fail(f"{what} at " + ", ".join(found))


def test_no_assert_statements_outside_oracles():
    _fail_at("assert statement", [
        _at(path, node) for path, node in _nodes()
        if path.name != "oracles.py" and isinstance(node, ast.Assert)
    ])


def _raises_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_raise_assertion_error_outside_oracles():
    _fail_at("raise AssertionError", [
        _at(path, node) for path, node in _nodes()
        if path.name != "oracles.py" and _raises_assertion_error(node)
    ])


def test_every_import_is_stdlib_or_relative():
    found = []
    for path, node in _nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [
            f"{_at(path, node)} ({m})" for m in modules
            if m.partition(".")[0] not in sys.stdlib_module_names
        ]
    _fail_at("non-stdlib import", found)


def test_every_imported_name_is_read():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{_at(path, node)} ({name})"
                    for name in (a.asname or a.name.partition(".")[0] for a in node.names)
                    if name not in reads
                ]
    _fail_at("imported name that the module never reads", found)


def test_only_the_suites_import_the_oracles():
    found = []
    for path, node in _nodes():
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        if node.module is None:
            imported = [alias.name for alias in node.names]  # from . import x
        else:
            imported = [node.module.partition(".")[0]]
        if "oracles" in imported and path.name != "suites.py":
            found.append(_at(path, node))
    _fail_at("import of oracles", found)


def _production_reads() -> set[str]:
    """Every bare name a production module reads.  Attributes do not count:
    `"".join` is not a read of `ratlin.join`, and the modules import what
    they use by name."""
    return {
        node.id for path, node in _nodes()
        if path.name not in NOT_PRODUCTION and isinstance(node, ast.Name)
    }


def test_every_public_name_is_used_in_production_or_listed():
    reads = _production_reads()
    unused = sorted(set(nestlab.__all__) - reads - set(PUBLIC_ENTRY_POINTS))
    _fail_at("public name without a production reader or a listed reason",
             [f"nestlab.__all__ ({name})" for name in unused])


def test_public_entry_points_are_not_stale():
    reads = _production_reads()
    assert sorted(n for n in PUBLIC_ENTRY_POINTS if n in reads) == [], \
        "now read by production code; drop it from PUBLIC_ENTRY_POINTS"
    assert sorted(set(PUBLIC_ENTRY_POINTS) - set(nestlab.__all__)) == [], \
        "no longer in nestlab.__all__; drop it from PUBLIC_ENTRY_POINTS"
    assert all(PUBLIC_ENTRY_POINTS.values())


def _public_members() -> dict[str, bool]:
    """"Class.member" -> whether it is a classmethod, for every public method,
    classmethod or property of a class in a production module."""
    members = {}
    for path, node in _nodes():
        if path.name in NOT_PRODUCTION or not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                members[f"{node.name}.{item.name}"] = any(
                    isinstance(d, ast.Name) and d.id == "classmethod"
                    for d in item.decorator_list
                )
    return members


def _production_member_reads() -> set[str]:
    """Every attribute a production module reads, as "attr", and as
    "Name.attr" when it is read on a bare name.  A classmethod is read only
    through its own class (`SupportFn.identity` is no read of
    `Matrix.identity`); any other member is read by its name on any object,
    since the receiver's class is not known from the syntax tree, so a name
    that several classes define tells nothing (see `SHARED_NAME_READERS`)."""
    reads = set()
    for path, node in _nodes():
        if path.name not in NOT_PRODUCTION and isinstance(node, ast.Attribute):
            reads.add(node.attr)
            if isinstance(node.value, ast.Name):
                reads.add(f"{node.value.id}.{node.attr}")
    return reads


def _shared_names(members: dict[str, bool]) -> set[str]:
    """The names of the instance members that two production classes, or a
    production class and a builtin type, define."""
    owners: dict[str, int] = {}
    for member, classmethod_ in members.items():
        if not classmethod_:
            name = member.partition(".")[2]
            owners[name] = owners.get(name, 0) + 1
    return {
        name for name, count in owners.items()
        if count > 1 or any(hasattr(t, name) for t in BUILTIN_TYPES)
    }


def _is_read(member: str, classmethod_: bool, reads: set[str], shared: set[str]) -> bool:
    if classmethod_:
        return member in reads
    name = member.partition(".")[2]
    if name in shared:
        return member in SHARED_NAME_READERS
    return name in reads


def test_every_public_member_is_used_in_production_or_listed():
    reads, members = _production_member_reads(), _public_members()
    shared = _shared_names(members)
    _fail_at("public member without a production reader or a listed reason", [
        member for member, classmethod_ in sorted(members.items())
        if member not in PUBLIC_MEMBERS and not _is_read(member, classmethod_, reads, shared)
    ])


def test_public_members_are_not_stale():
    reads, members = _production_member_reads(), _public_members()
    shared = _shared_names(members)
    assert sorted(m for m in PUBLIC_MEMBERS if m not in members) == [], \
        "no longer a public member; drop it from PUBLIC_MEMBERS"
    assert sorted(
        m for m in PUBLIC_MEMBERS if _is_read(m, members[m], reads, shared)
    ) == [], "now read by production code; drop it from PUBLIC_MEMBERS"
    assert all(PUBLIC_MEMBERS.values())


def test_shared_name_readers_are_not_stale():
    members = _public_members()
    shared = _shared_names(members)
    assert sorted(
        m for m in SHARED_NAME_READERS
        if m not in members or m.partition(".")[2] not in shared
    ) == [], "no public member of a shared name; drop it from SHARED_NAME_READERS"
    assert all(SHARED_NAME_READERS.values())


def _class_name(annotation: ast.AST | None) -> str | None:
    """The class an annotation names: `Subspace` or `"Subspace"`."""
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value
    return None


def _production_types() -> tuple[set[str], dict[str, str]]:
    """The classes of the production modules, and the class each of their
    module-level functions is annotated to return."""
    classes, returns = set(), {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in NOT_PRODUCTION:
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                classes.add(node.name)
            elif isinstance(node, ast.FunctionDef) and _class_name(node.returns):
                returns[node.name] = _class_name(node.returns)
    return classes, returns


def _function(reader: str) -> tuple[ast.FunctionDef, str | None] | None:
    """The function that "module.function" or "module.Class.method" names,
    with the name of its class; None when there is no such function."""
    module, *names = reader.split(".")
    path = PACKAGE / f"{module}.py"
    if not path.is_file():
        return None
    scope, cls = ast.parse(path.read_text(encoding="utf-8")), None
    for name in names:
        scope = next((
            node for node in scope.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
        ), None)
        if scope is None:
            return None
        if isinstance(scope, ast.ClassDef):
            cls = scope.name
    return (scope, cls) if isinstance(scope, ast.FunctionDef) else None


def _typed_reads(func: ast.FunctionDef, cls: str | None,
                 classes: set[str], returns: dict[str, str]) -> set[str]:
    """"Class.attr" for every attribute the function reads on an object whose
    class its syntax tree shows: `self` in a method, a parameter annotated
    with the class, a name assigned a call of the class or of a function
    annotated to return it, or such a call itself.  `space.space.dim` is a
    read on `space.space`, whose class this does not follow."""

    def called(node: ast.AST) -> str | None:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
            return name if name in classes else returns.get(name)
        return None

    args = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
    known = {a.arg: _class_name(a.annotation) for a in args}
    if cls is not None and args and args[0].arg == "self":
        known["self"] = cls
    for node in ast.walk(func):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and (owner := called(node.value)) is not None):
            known[node.targets[0].id] = owner
    reads = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute):
            receiver = node.value
            owner = known.get(receiver.id) if isinstance(receiver, ast.Name) else called(receiver)
            if owner is not None:
                reads.add(f"{owner}.{node.attr}")
    return reads


def test_shared_name_readers_read_their_member():
    classes, returns = _production_types()
    found = []
    for member, readers in SHARED_NAME_READERS.items():
        for reader in readers:
            func = _function(reader)
            if (f"{reader.partition('.')[0]}.py" in NOT_PRODUCTION or func is None
                    or member not in _typed_reads(*func, classes, returns)):
                found.append(f"{reader} ({member})")
    _fail_at("listed production reader that does not read its member", found)


def _defined_names(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level by its own definitions, not
    by an import."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_all_is_the_concatenation_of_the_modules_lists():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in init.body if isinstance(node, ast.ImportFrom)]
    # __init__ imports nothing by name: each public name comes from a star
    assert imports and all([a.name for a in node.names] == ["*"] for node in imports)
    reexported = [node.module for node in imports]
    found, owner = [], {}
    for module in reexported:
        names = getattr(nestlab, module).__all__
        defined = _defined_names(
            ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")))
        for name in names:
            if name not in defined or name.startswith("_"):
                found.append(f"{module}.__all__ ({name}): not a public name it defines")
            if name in owner:
                found.append(f"{module}.__all__ ({name}): also in {owner[name]}.__all__")
            owner.setdefault(name, module)
    _fail_at("bad re-export", found)
    assert list(nestlab.__all__) == [
        name for module in reexported for name in getattr(nestlab, module).__all__
    ]
    assert len(nestlab.__all__) == len(set(nestlab.__all__))


def _self_set_calls(node: ast.AST, function: str | None = None):
    """(name of the innermost enclosing function, call) for each
    `self._set(...)` call under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        function = getattr(node, "name", "<lambda>")
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_set" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"):
        yield function, node
    for child in ast.iter_child_nodes(node):
        yield from _self_set_calls(child, function)


def test_set_in_init_is_the_one_way_past_the_freeze():
    # no module, value.py included, writes a slot past the refusing
    # __setattr__ by hand, and every `self._set` runs inside a constructor,
    # so no value writes a slot after its constructor returns
    _fail_at("object.__setattr__", [
        _at(path, node) for path, node in _nodes()
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    ])
    calls = [
        (path, function, call) for path in sorted(PACKAGE.rglob("*.py"))
        for function, call in _self_set_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert calls
    _fail_at("self._set outside an __init__", [
        _at(path, call) for path, function, call in calls if function != "__init__"
    ])


def test_importing_the_package_loads_no_test_module():
    probe = (
        "import json, sys; import nestlab; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('nestlab'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "nestlab" in loaded
    assert loaded.isdisjoint({"nestlab.oracles", "nestlab.suites", "nestlab.sampling"})


@pytest.mark.parametrize("module", ["nestlab", "nestlab.cli"])
def test_importing_loads_neither_dataclasses_nor_inspect(module):
    # every command pays for what importing nestlab imports
    probe = (f"import sys; import {module}; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
