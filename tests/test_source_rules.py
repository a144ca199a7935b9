"""Rules checked over the source tree of ``src/repro``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def sized_classes(trees) -> set:
    """Names of classes that define ``__len__`` or ``__bool__``: an
    instance of one can be falsy, an empty one usually is."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef)
                    and item.name in ("__len__", "__bool__")
                    for item in node.body):
                names.add(node.name)
    return names


def falsy_defaults(tree, classes) -> list:
    """``(line, class)`` of every ``x or Cls(...)`` with ``Cls`` in
    ``classes``: an empty ``x`` the caller passed is silently replaced
    by a fresh ``Cls``."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BoolOp)
                and isinstance(node.op, ast.Or)):
            continue
        for value in node.values[1:]:
            if not isinstance(value, ast.Call):
                continue
            func = value.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name in classes:
                found.append((node.lineno, name))
    return found


class TestFalsyDefaults:
    def test_no_or_default_of_a_class_that_can_be_falsy(self):
        modules = list(_modules())
        classes = sized_classes(tree for _, tree in modules)
        assert {"MetricsRegistry", "IncidentLog"} <= classes
        offenders = [f"{path.relative_to(SRC)}:{line}: ... or {name}()"
                     for path, tree in modules
                     for line, name in falsy_defaults(tree, classes)]
        assert offenders == [], (
            "use `x if x is not None else Cls()`; an empty Cls is "
            "falsy:\n" + "\n".join(offenders))

    def test_rule_sees_names_and_attributes(self):
        tree = ast.parse(
            "a = registry or MetricsRegistry()\n"
            "b = log or robustness.IncidentLog()\n"
            "c = observer or Tracer()\n"
            "d = registry if registry is not None else MetricsRegistry()\n")
        assert falsy_defaults(tree, {"MetricsRegistry", "IncidentLog"}) \
            == [(1, "MetricsRegistry"), (2, "IncidentLog")]


def context_op_calls(tree) -> list:
    """``(line, op)`` of every ``add``/``sub``/``mul`` call on a receiver
    named ``ctx`` (``ctx.add(...)``, ``world.ctx.mul(...)``)."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("add", "sub", "mul")):
            continue
        receiver = node.func.value
        name = (receiver.id if isinstance(receiver, ast.Name)
                else receiver.attr if isinstance(receiver, ast.Attribute)
                else None)
        if name == "ctx":
            found.append((node.lineno, node.func.attr))
    return found


class TestOneArithmeticIdiom:
    def test_physics_chains_kernel_ops(self):
        offenders = [f"{path.relative_to(SRC)}:{line}: ctx.{op}(...)"
                     for path, tree in _modules()
                     if path.relative_to(SRC).parts[0] == "physics"
                     for line, op in context_op_calls(tree)]
        assert offenders == [], (
            "an engine pass takes kern = ctx.kernel(), enters each input "
            "once and chains kern.binop; ctx.add/sub/mul round both "
            "operands on every call:\n" + "\n".join(offenders))

    def test_rule_sees_context_ops(self):
        tree = ast.parse(
            "a = ctx.add(x, y)\n"
            "b = self.ctx.sub(x, y)\n"
            "c = math3d.dot(ctx, ctx.mul(x, y), z)\n"
            "d = kern.binop(np.add, x, y)\n"
            "e = np.add(x, y)\n"
            "f = seen.add(x)\n")
        assert context_op_calls(tree) == [(1, "add"), (2, "sub"),
                                          (3, "mul")]
