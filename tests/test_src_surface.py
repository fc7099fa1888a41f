"""``src/repro`` ships only what the system calls.

A token scan of the repository: every function, method, property and class
defined at module or class level in ``src/repro`` must be named, as a code
token, somewhere in ``src/``, ``benchmarks/`` (the dsbench suite included) or
``examples/``.  What does not count as a use:

- a name inside a string or a comment (a docstring, an ``__all__`` entry);
- a name in an ``import`` statement of an ``__init__.py`` (a re-export);
- the ``def`` / ``class`` name itself, and a name inside the member's own body.

A name is matched as a word, whatever object it is looked up on, so two
members that share a name count as used when either is called — except
``self.<name>`` inside the body of a ``src/repro`` class that defines a member
of that name, which is a use of that class's own member and of its overrides
in subclasses (bases are matched by name) alone.  Dunder methods are called
by the language and are not scanned.

A member nothing but ``tests/`` reaches is deleted, unless it is in
``ALLOWLIST`` below with its reason.  Only four kinds of keeper belong there:
an operator query the README or the CLI names, an extension point the README
documents, a recorder member the trace ROADMAP item will use, and the
observation surface of the fault-injection harness ``repro.io.faultstore``.

Run ``python tests/test_src_surface.py [repo root]`` to print what the scan
finds, with line counts.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
CALLER_TREES = ("src", "benchmarks", "examples")

README_QUERY = "operator query named by the README / CLI"
README_EXTENSION = "extension point documented in the README"
TRACE_ITEM = "recorder member ROADMAP item 1 (trace analysis) will use"
FAULT_HARNESS = "observation surface of the fault-injection harness"

# ``module:qualname`` -> reason.  Every entry must still be found by the scan:
# a keeper that the system starts calling leaves the list.
ALLOWLIST = {
    "repro.io.tiered:TierChain.drain_status": README_QUERY,
    "repro.io.tiered:TierChain.level_used_bytes": README_QUERY,
    "repro.io.cas:CASStore.refcount": README_QUERY,
    "repro.restart.loader:CheckpointLoader.verify_tensor_checksums": README_QUERY,
    "repro.restart.spec:RestoreSpec.of_shard": README_QUERY,
    "repro.restart.reshape:reshape_state_dicts": README_QUERY,
    "repro.io.store:register_store": README_EXTENSION,
    "repro.core.registry:register_real_engine": README_EXTENSION,
    "repro.simulator.trace:TraceRecorder.add_counter": TRACE_ITEM,
    "repro.simulator.trace:TraceRecorder.total_time": TRACE_ITEM,
    "repro.simulator.trace:TraceRecorder.actors": TRACE_ITEM,
    "repro.simulator.trace:TraceRecorder.busy_intervals": TRACE_ITEM,
    "repro.io.faultstore:FaultyStore.fault_log": FAULT_HARNESS,
    "repro.io.faultstore:FaultyStore.ops_so_far": FAULT_HARNESS,
    "repro.io.faultstore:FaultyStore.suspend": FAULT_HARNESS,
}


def _python_files(tree: Path):
    return sorted(p for p in tree.rglob("*.py") if "__pycache__" not in p.parts)


def _module_name(src: Path, path: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _members(src: Path):
    """Yield ``(module, qualname, name, path, first line, last line)``."""
    for path in _python_files(src / "repro"):
        module = _module_name(src, path)
        tree = ast.parse(path.read_text(), filename=str(path))
        todo = [(node, "") for node in tree.body]
        while todo:
            node, prefix = todo.pop()
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield module, prefix + name, name, path, first, node.end_lineno
            if isinstance(node, ast.ClassDef):
                todo.extend((child, f"{prefix}{name}.") for child in node.body)


def _import_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _fstring_names(token: str):
    """``(name, on self)`` of each name in the replacement fields of an
    f-string token; ``on self`` when it is looked up as ``self.<name>``.

    Python 3.12 tokenizes those fields as NAME tokens; earlier versions hand
    the whole f-string over as one STRING token.
    """
    prefix = token[:token.index(token[-1])].lower()
    if "f" not in prefix:
        return
    for node in ast.walk(ast.parse(token, mode="eval")):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, isinstance(node.value, ast.Name) and node.value.id == "self"


def _classes(tree: ast.Module, module: str):
    """``(first line, last line, module:qualname, member names, base names)``
    of every class in ``tree``; the qualname is ``None`` for a class inside a
    function, which has no members the scan reports."""
    todo = [(node, "") for node in tree.body]
    while todo:
        node, prefix = todo.pop()
        if isinstance(node, ast.ClassDef):
            names = {child.name for child in node.body if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
            qualname = None if prefix is None else f"{module}:{prefix}{node.name}"
            bases = {base.id if isinstance(base, ast.Name) else base.attr
                     for base in node.bases if isinstance(base, (ast.Name, ast.Attribute))}
            yield node.lineno, node.end_lineno, qualname, names, bases
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{prefix}{node.name}." if isinstance(node, ast.ClassDef) and \
                prefix is not None else None
            todo.extend((child, inner) for child in node.body)
        else:
            todo.extend((child, prefix) for child in ast.iter_child_nodes(node)
                        if isinstance(child, ast.stmt))


def _uses(root: Path):
    """``{name: [(path, line)]}`` of every counted NAME token; a
    ``self.<name>`` resolved to its class's own member is filed under that
    member's ``module:qualname`` instead of its bare name."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    for tree_name in CALLER_TREES:
        for path in _python_files(root / tree_name):
            text = path.read_text()
            tree = ast.parse(text)
            skip = _import_lines(tree) if path.name == "__init__.py" else set()
            classes = (sorted(_classes(tree, _module_name(root / "src", path)))
                       if tree_name == "src" else [])

            def use(name: str, line: int, on_self: bool) -> None:
                # The innermost class around the line sorts last among those that hold it.
                owner = [(qualname, names) for first, last, qualname, names, _bases
                         in classes if first <= line <= last][-1:]
                if on_self and owner and owner[0][0] and name in owner[0][1]:
                    name = f"{owner[0][0]}.{name}"
                uses.setdefault(name, []).append((path, line))

            after_def = False
            last_two = ("", "")
            for tok in tokenize.generate_tokens(io.StringIO(text).readline):
                on_self = last_two == ("self", ".")
                if tok.type in (tokenize.NAME, tokenize.OP):
                    last_two = (last_two[1], tok.string)
                if tok.type == tokenize.STRING:
                    for name, fstring_self in _fstring_names(tok.string):
                        use(name, tok.start[0], fstring_self)
                if tok.type != tokenize.NAME:
                    continue
                if after_def:
                    after_def = False
                    continue
                if tok.string in ("def", "class"):
                    after_def = True
                    continue
                if tok.start[0] in skip:
                    continue
                use(tok.string, tok.start[0], on_self)
    return uses


def _lineage(src: Path) -> dict[str, set[str]]:
    """``{module:qualname: the class and its ancestors}`` of every class of
    ``src/repro``, a base matched to every class of its name."""
    bases, by_name = {}, {}
    for path in _python_files(src / "repro"):
        for *_lines, qualname, _names, base_names in _classes(
                ast.parse(path.read_text()), _module_name(src, path)):
            if qualname is not None:
                bases[qualname] = base_names
                by_name.setdefault(qualname.partition(":")[2].rpartition(".")[2],
                                   set()).add(qualname)
    lineage = {}
    for qualname in bases:
        todo, seen = [qualname], set()
        while todo:
            cls = todo.pop()
            if cls not in seen:
                seen.add(cls)
                todo.extend(parent for base in bases[cls] for parent in by_name.get(base, ()))
        lineage[qualname] = seen
    return lineage


def scan(root: Path = REPO):
    """Every member of ``root/src/repro`` nothing outside ``tests/`` names.

    Returns ``[(module:qualname, lines)]``, sorted by key.
    """
    src = root / "src"
    uses = _uses(root)
    lineage = _lineage(src)
    found = []
    for module, qualname, name, path, first, last in _members(src):
        owner = f"{module}:{qualname.rpartition('.')[0]}"
        keys = [name] + [f"{cls}.{name}" for cls in lineage.get(owner, ())]
        outside = [
            (p, line) for key in keys for p, line in uses.get(key, [])
            if not (p == path and first <= line <= last)
        ]
        if not outside:
            found.append((f"{module}:{qualname}", last - first + 1))
    return sorted(found)


def test_every_src_member_has_a_caller_outside_tests():
    unused = [key for key, _ in scan() if key not in ALLOWLIST]
    assert not unused, (
        "members of src/repro that only tests/ reaches (delete them, or allowlist "
        "a README operator query / extension point, a ROADMAP item 1 recorder "
        "member or a fault-harness hook in tests/test_src_surface.py):\n  "
        + "\n  ".join(unused)
    )


def test_every_allowlisted_member_is_still_test_only():
    found = {key for key, _ in scan()}
    stale = sorted(set(ALLOWLIST) - found)
    assert not stale, f"allowlisted but used by the system (or gone): {stale}"


def test_allowlist_holds_only_the_four_kinds_of_keeper():
    kinds = {README_QUERY, README_EXTENSION, TRACE_ITEM, FAULT_HARNESS}
    assert set(ALLOWLIST.values()) <= kinds


# ---------------------------------------------------------------------------
# The scan's rules, on a repository written into a temporary directory
# ---------------------------------------------------------------------------

_LIB = '''\
def used():
    return 1


def helper():
    return 2
'''


def _repo(root: Path, files: dict) -> Path:
    """A repository whose ``src/repro/lib.py`` is ``_LIB`` plus ``files``."""
    files = {"src/repro/__init__.py": "", "src/repro/lib.py": _LIB,
             "src/repro/main.py": "from repro.lib import used\nused()\n", **files}
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def _found(root: Path) -> list:
    return [key for key, _lines in scan(root)]


def test_scan_reports_a_member_only_tests_call(tmp_path):
    root = _repo(tmp_path, {"tests/test_lib.py": "from repro.lib import helper\nhelper()\n"})
    assert _found(root) == ["repro.lib:helper"]


@pytest.mark.parametrize("tree", CALLER_TREES)
def test_scan_counts_a_call_from_each_caller_tree(tmp_path, tree):
    root = _repo(tmp_path, {f"{tree}/caller.py": "from repro import lib\nlib.helper()\n"})
    assert _found(root) == []


def test_scan_ignores_a_name_in_a_docstring_comment_or_string(tmp_path):
    root = _repo(tmp_path, {"src/repro/other.py": (
        '"""Calls helper() nowhere."""\n'
        "# helper\n"
        "NAMES = ['helper']\n")})
    assert _found(root) == ["repro.lib:helper"]


def test_scan_ignores_a_reexport_in_an_init(tmp_path):
    root = _repo(tmp_path, {"src/repro/__init__.py": (
        "from .lib import (\n    helper,\n    used,\n)\n"
        "__all__ = ['helper', 'used']\n")})
    assert _found(root) == ["repro.lib:helper"]


def test_scan_counts_an_import_outside_an_init(tmp_path):
    root = _repo(tmp_path, {"src/repro/other.py": "from repro.lib import helper\n"})
    assert _found(root) == []


def test_scan_does_not_count_a_members_own_body(tmp_path):
    root = _repo(tmp_path, {"src/repro/lib.py": _LIB.replace(
        "return 2", "return helper() if False else 2")})
    assert _found(root) == ["repro.lib:helper"]


def test_scan_counts_a_name_in_an_fstring_field(tmp_path):
    root = _repo(tmp_path, {"src/repro/other.py": (
        "from repro import lib\nTEXT = f'{lib.helper()!r}'\n")})
    assert _found(root) == []


def test_scan_names_nested_members_and_skips_dunders(tmp_path):
    root = _repo(tmp_path, {"src/repro/lib.py": _LIB + (
        "\n\nclass Box:\n"
        "    def __init__(self):\n"
        "        self.value = 1\n"
        "\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"), "src/repro/other.py": "from repro.lib import Box, helper\n"})
    assert scan(root) == [("repro.lib:Box.size", 3)]


_TWO_POOLS = '''\
class Pool:
    def free_bytes(self):
        return 0

    def describe(self):
        return f"{self.free_bytes()} free"


class Ring:
    def free_bytes(self):
        return 1

    def grow(self):
        return self.free_bytes() + 1


class WiderRing(Ring):
    def free_bytes(self):
        return 2
'''


@pytest.mark.parametrize("caller", ["self.free_bytes()", "f'{self.free_bytes()}'"])
def test_scan_resolves_a_self_use_to_its_own_class(tmp_path, caller):
    """``Pool.describe`` names ``self.free_bytes``: that is ``Pool``'s own
    member, so ``Ring.free_bytes``, which only a test calls, is reported;
    ``Ring.grow``'s ``self.free_bytes`` keeps its own and its subclass's
    override alive."""
    root = _repo(tmp_path, {
        "src/repro/pools.py": _TWO_POOLS.replace("f\"{self.free_bytes()} free\"", caller)
                                         .replace("self.free_bytes() + 1", "1"),
        "src/repro/other.py": "from repro.pools import Pool, Ring, WiderRing\n"
                              "Pool().describe()\nRing()\nWiderRing()\n",
        "tests/test_pools.py": "from repro.pools import Ring\nRing().free_bytes()\n"})
    assert _found(root) == ["repro.lib:helper", "repro.pools:Ring.free_bytes",
                            "repro.pools:Ring.grow", "repro.pools:WiderRing.free_bytes"]
    (root / "src/repro/pools.py").write_text(_TWO_POOLS)
    assert _found(root) == ["repro.lib:helper", "repro.pools:Ring.grow"]


if __name__ == "__main__":
    found = scan(Path(sys.argv[1]) if len(sys.argv) > 1 else REPO)
    for key, lines in found:
        print(f"{lines:5d}  {key}{'  [allowlisted]' if key in ALLOWLIST else ''}")
    print(f"{len(found)} members, {sum(n for _, n in found)} lines")
