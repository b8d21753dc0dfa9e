"""Every function, method and record field in ``src/rcndl`` is there
because the program reads it.

A definition is live when code that runs reads it: code run on import, or
the body of a live function.  Functions in ``rcndl.__all__``, special
methods and the entries of ``ALLOWED`` are live from the start.  The
fields are the annotated names of every ``NamedTuple`` and dataclass, and
every ``property`` or ``cached_property`` of any class.  A function counts
as read by a name or an attribute that spells it, a method or a field by
an attribute; an attribute called (``x.name()``) reads a method, not a
field.
Matching is by spelling alone: a read of another thing of the same name
keeps a definition live, and a read through a string (``getattr``) is not
seen, so names reached that way are exported or allowed.  A definition
that only tests, reference modules or tools read is dead: such a reader
works it out from what stays, or keeps a copy.
"""

import ast
from pathlib import Path

import rcndl

SRC = Path(rcndl.__file__).parent
PROPERTIES = ("property", "cached_property")

# Definitions kept although no code in the package reads them, each with
# its reason.
ALLOWED = {
    "preprocess.PreparedNetwork.joint_over":
        "public: the joint over any variable set, which callers read; the "
        "benchmark reads each constraint's gradient off it",
    "preprocess.PreparedNetwork.with_table":
        "perfbench/tracer.py counts its calls by this name until the tracer "
        "reads run statistics instead (ROADMAP item 1, step B)",
    "preprocess.PreparedNetwork.program":
        "perfbench/workloads.py layer_sample reads net.program.clauses in "
        "traced runs until ROADMAP item 1 step B",
    **dict.fromkeys(
        [f"engine.DualState.{f}"
         for f in ("lambdas", "value", "gradient", "iterations")],
        "public: lec_solve returns the solver's exit state, and "
        "ConvergenceError.best carries it"),
    "scheduler.Step.home":
        "each step reports its home clause (ROADMAP aim 4); the report "
        "that reads it is ROADMAP item 1 step A",
}


def _is_record(node):
    """A ``NamedTuple`` or a dataclass: its annotated names are fields."""
    return (any(isinstance(b, ast.Name) and b.id == "NamedTuple"
                for b in node.bases)
            or any(ast.unparse(d).startswith("dataclass")
                   for d in node.decorator_list))


def _collect(tree, module):
    """Every definition in ``tree``, as qualified name -> (what it is:
    function, method or field; its name), and every read, as the
    definition whose body holds it (None for code run on import) -> a set
    of (how: name, attribute or called attribute; name)."""
    defs, reads = {}, {}

    def visit(node, owner, cls=None, record=False):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            key = f"{cls or owner or module}.{node.name}"
            prop = any(ast.unparse(d) in PROPERTIES for d in node.decorator_list)
            defs[key] = ("field" if cls and prop else
                         "method" if cls else "function", node.name)
            for part in (*node.decorator_list, node.args):
                visit(part, owner)
            for stmt in node.body:
                visit(stmt, key)
            return
        if isinstance(node, ast.ClassDef):
            for part in (*node.decorator_list, *node.bases, *node.keywords):
                visit(part, owner)
            for stmt in node.body:
                visit(stmt, owner, f"{module}.{node.name}", _is_record(node))
            return
        if record and isinstance(node, ast.AnnAssign):
            defs[f"{cls}.{node.target.id}"] = ("field", node.target.id)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            reads.setdefault(owner, set()).add(("call", node.func.attr))
            for child in (node.func.value, *node.args, *node.keywords):
                visit(child, owner)
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.setdefault(owner, set()).add(("name", node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.setdefault(owner, set()).add(("attr", node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for stmt in tree.body:
        visit(stmt, None)
    return defs, reads


def _package():
    defs, reads = {}, {}
    for path in sorted(SRC.glob("*.py")):
        d, r = _collect(ast.parse(path.read_text()), path.stem)
        defs.update(d)
        for owner, names in r.items():
            reads.setdefault(owner, set()).update(names)
    return defs, reads


def _dead(defs, reads, allowed):
    """The definitions that no live code reads."""
    readers = {}  # (how, name) -> the definitions that read resolves to
    for key, (what, name) in defs.items():
        readers.setdefault(("attr", name), []).append(key)
        if what != "field":
            readers.setdefault(("call", name), []).append(key)
        if what == "function":
            readers.setdefault(("name", name), []).append(key)
    todo = [None, *allowed]
    todo += [k for k, (what, name) in defs.items()
             if name.startswith("__") and name.endswith("__")
             or (what == "function" and k.count(".") == 1
                 and name in rcndl.__all__)]
    live = set()
    while todo:
        owner = todo.pop()
        if owner in live:
            continue
        live.add(owner)
        for read in reads.get(owner, ()):
            todo += readers.get(read, ())
    return sorted(set(defs) - live)


def test_every_definition_is_read_by_code_that_runs():
    defs, reads = _package()
    # the check sees the fields it is about: of records, and properties
    assert {"preprocess.PreparedNetwork.flat",
            "preprocess.PropagationIndex.ends",
            "engine.DualState.lambdas",
            "scheduler.Step.home",
            "model.SourcePos.line",
            "preprocess.PreparedNetwork.tables"} <= set(defs)
    assert defs["preprocess.PreparedNetwork.marginals"][0] == "field"
    assert _dead(defs, reads, ALLOWED) == []


def test_every_allowed_definition_is_needed():
    """An entry of ``ALLOWED`` names a definition that the package has and
    that nothing else keeps live."""
    defs, reads = _package()
    assert set(ALLOWED) <= set(_dead(defs, reads, ()))
