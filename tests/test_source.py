"""Checks on the package source itself."""

import ast
from pathlib import Path

import unstretch

PACKAGE = Path(unstretch.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a library check written as
    # one silently disappears; checks must raise package errors instead.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"


def _public_definitions(tree):
    """(name, is_method) for public top-level functions and classes and for
    public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, True


def _references(tree, strings=False):
    """(name, via_attribute) for the names a module uses: as names, import
    aliases, attributes and, if ``strings``, string constants (which count
    as attributes, since the benchmark patches methods by name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, ast.alias):
            yield node.name, False
            if node.asname:
                yield node.asname, False
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, True


def test_every_public_name_has_a_caller_outside_the_tests():
    # A public function, class or method that only the tests call is API
    # kept for its own sake. The benchmark patches names by string, so its
    # string constants count as callers too. A method counts as called only
    # through an attribute (``obj.name``), so a local variable or function
    # of the same name does not hide it.
    modules = sorted(PACKAGE.glob("*.py"))
    defined = {ref for p in modules for ref in _public_definitions(_parse(p))}
    refs = {
        ref for p in modules if p.name != "__init__.py" for ref in _references(_parse(p))
    }
    for p in PERFBENCH.glob("*.py"):
        refs.update(_references(_parse(p), strings=True))
    names = {name for name, _ in refs}
    attributes = {name for name, via_attribute in refs if via_attribute}
    unused = sorted(
        name for name, is_method in defined
        if name not in (attributes if is_method else names)
    )
    assert not unused, f"public names with no caller outside the tests: {unused}"


def _defaulted_parameters(tree):
    """(function, parameter, position) for every parameter with a default of
    every function and method but ``__init__``; the position counts from
    the first argument a call writes (not ``self``/``cls``) and is None for
    keyword-only parameters."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef) or node.name == "__init__":
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield node.name, arg.arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def _passed_arguments(tree):
    """(callee name, position or keyword) for every argument a call writes."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            continue
        positional = [a for a in node.args if not isinstance(a, ast.Starred)]
        yield from ((name, i) for i in range(len(positional)))
        yield from ((name, k.arg) for k in node.keywords if k.arg)


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    # A default that no caller overrides is an option kept for its own sake:
    # either a test-only knob or a value that belongs in the body.
    modules = sorted(PACKAGE.glob("*.py"))
    passed = {
        arg for p in modules + sorted(PERFBENCH.glob("*.py"))
        for arg in _passed_arguments(_parse(p))
    }
    unused = sorted(
        f"{func}.{name}"
        for p in modules
        for func, name, position in _defaulted_parameters(_parse(p))
        if (func, name) not in passed and (func, position) not in passed
    )
    assert not unused, f"defaulted parameters no caller outside the tests passes: {unused}"


PROCESS_MODULES = {"subprocess", "multiprocessing", "concurrent"}
PROCESS_CALLS = {"fork", "forkpty", "posix_spawn", "posix_spawnp", "system", "popen"}


def test_no_module_starts_a_process():
    # Every run is one process: its summary reports that process's own peak
    # RSS, which would miss the memory of any child it started.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif (isinstance(node, ast.Attribute) and node.attr in PROCESS_CALLS
                  and isinstance(node.value, ast.Name) and node.value.id == "os"):
                names = [f"os.{node.attr}"]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.startswith("os.") or name.split(".")[0] in PROCESS_MODULES]
    assert not found, f"package code that starts a process: {found}"
