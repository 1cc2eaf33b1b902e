"""Rules on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "laguerre"


def test_invariants_raise_typed_errors_not_asserts():
    # python -O strips assert statements, so an invariant of the engine must
    # raise a typed GeometryError instead
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_module_imports_another_modules_private_name():
    # a name another module of the package needs is public; a leading
    # underscore marks what only its own module may use
    found = [f"{path.name}:{node.lineno} {alias.name}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ImportFrom) and node.level >= 1
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_the_residual_build_reads_the_group_only_as_permutations():
    # skewaffine reads Δ as its generators' permutations, its order and its
    # join oracle: no stabilizer scan, no translation list, no single-point
    # image, and the element list only inside len(...).  The group supplies
    # the closed form, so skewaffine does no field arithmetic: no %, no
    # divmod, and no field or canonical coordinates
    tree = ast.parse((SRC / "skewaffine.py").read_text())
    sized = {id(node.args[0]) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "len" and node.args}
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and node.attr in ("stabilizer", "translations", "image", "elements")]
    assert [f"{node.lineno} {node.attr}" for node in reads
            if node.attr != "elements" or id(node) not in sized] == []
    assert any(node.attr == "elements" for node in reads)  # the guard sees the order

    def arithmetic(node):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
            return "%"
        if isinstance(node, ast.Name) and node.id == "divmod":
            return "divmod"
        if isinstance(node, ast.Attribute) and node.attr in (
                "gf", "canonical_index", "_canonical_index"):
            return node.attr
        return None

    assert [f"{node.lineno} {name}" for node in ast.walk(tree)
            if (name := arithmetic(node))] == []
    assert any(isinstance(node, ast.Attribute) and node.attr == "join_oracle"
               for node in ast.walk(tree))  # the guard sees the oracle


def test_only_the_plane_turns_circle_ids_into_masks():
    # one point encoding per layer: the plane keeps each circle's point ids
    # and alone ORs them into masks; the bit loop mask_image is retired
    found, plane_reads = [], 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (getattr(node, "name", None) or getattr(node, "id", None)
                    or getattr(node, "attr", None))
            if name == "mask_image":
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} mask_image")
            elif name == "circle_ids" and path.name != "plane.py":
                found.append(f"{path.name}:{node.lineno} circle_ids")
            plane_reads += name == "circle_ids" and path.name == "plane.py"
    assert found == []
    assert plane_reads  # the guard sees the encoding where it lives


def test_the_residual_space_stores_each_line_and_position_once():
    # the line through i and j is _byclass[i][_joinclass[i][j]], so no
    # module names the retired per-pair copy _linepts_minus; a residual
    # point's position is _local at its plane index, not a dict ``index``
    from laguerre import DeltaGroup, GroupSpace, LaguerrePlane, canonical_pencil
    found = [f"{path.name}:{getattr(node, 'lineno', '?')}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if "_linepts_minus" in (getattr(node, "name", None), getattr(node, "id", None),
                                     getattr(node, "attr", None))]
    assert found == []
    plane = LaguerrePlane(3)
    pencil = canonical_pencil(plane)
    space = GroupSpace.build(plane, pencil, DeltaGroup.build(plane, pencil))
    assert space._byclass and not hasattr(space, "index")


def test_the_command_line_imports_without_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, about half of a
    # cold command's import time, and pathlib urllib.parse, ipaddress and
    # fnmatch; -S keeps site packages out of the count
    probe = ("import sys, laguerre.cli; "
             "print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_only_the_entry_point_calls_os_exit():
    # os._exit skips every finally and buffer flush: one function, the
    # process's entry point, calls it, after flushing both streams
    found, entry_calls = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {id(node): fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_exit":
                where = (path.name, owner.get(id(node)))
                entry_calls += where == ("cli.py", "entry")
                if where != ("cli.py", "entry"):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert entry_calls == 1  # the guard sees the one call


def test_the_catalog_reads_the_group_as_whole_permutations():
    # verify reads Δ as permutations, circle lists, orbits and the group's
    # own lists: no single-point ``image`` and no Point/Circle ``apply``,
    # which is gone, as is the catalog's own translation list
    from laguerre import DeltaGroup, verify
    reads = [node for node in ast.walk(ast.parse((SRC / "verify.py").read_text()))
             if isinstance(node, ast.Attribute) and node.attr in ("apply", "image", "perm")]
    assert [f"{node.lineno} {node.attr}" for node in reads if node.attr != "perm"] == []
    assert any(node.attr == "perm" for node in reads)  # the guard sees the reads
    assert not hasattr(DeltaGroup, "apply")
    assert not hasattr(verify._Ctx, "translations")


# every error code the package raised when the guard below was written: it
# must still see each of them, so it cannot pass with nothing to check
_CODES = frozenset({
    "a1a2_failed", "a3_char2", "a3_violated", "bad_axiom", "bad_check", "bad_vertex",
    "char2_group", "char2_square_class", "div_zero", "generators_not_closed",
    "identical_circles", "join_degenerate", "join_mismatch", "normalizer_mismatch",
    "not_a_circle", "not_a_point", "not_automorphism", "not_canonical_member",
    "not_equivariant", "not_on_circle", "not_prime", "not_transitive", "on_circle",
    "out_of_range", "parallel_points", "pencil_member_mismatch", "pencil_not_fixed",
    "point_on_base_generator", "stabilizer_mismatch", "stabilizer_on_base",
    "tangency_mismatch", "touching_circle_mismatch", "translations_not_closed",
    "translations_not_regular", "unclassifiable"})


def test_every_error_code_is_named_by_a_test():
    # each constant ``code=`` keyword, and the code each ``require_reach``
    # call is given, appears as a string in some other test file
    codes = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.keyword) and node.arg == "code"
                    and isinstance(node.value, ast.Constant)):
                codes.add(node.value.value)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "require_reach"):
                codes.add(node.args[3].value)
    named = {node.value for path in sorted(Path(__file__).parent.glob("test_*.py"))
             if path.name != Path(__file__).name
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert codes >= _CODES
    assert sorted(codes - named) == []
