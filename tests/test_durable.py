"""One durable write: every file is written through ``repro.durable``.

``tests/invariants/test_crash.py`` kills a run at each rename and
resumes it.  It visits every durable write only if nothing else in
``src/repro`` renames or fsyncs a file, which the structural test here
holds, in the style of ``tests/test_imports.py``.
"""

import ast
import os
from pathlib import Path

import pytest

import repro
from repro.durable import atomic_open, write_atomic

SRC = Path(repro.__file__).parent

#: The calls that make a write durable.
DURABLE_CALLS = {"replace", "rename", "fsync", "fdatasync"}

#: Moves that set a whole file or directory aside rather than write one:
#: a corrupt artifact, and an untrusted epoch run directory.
QUARANTINE_MOVES = {
    ("core/pipeline.py", "quarantine"),
    ("campaigns/supervisor.py", "_quarantine_run_dir"),
}


def _durable_calls(path: Path) -> list[tuple[str, str]]:
    """``(enclosing function, os call)`` for each durable call."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend(
                (function, f"from os import {alias.name}")
                for alias in node.names if alias.name in DURABLE_CALLS
            )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "os"
            and node.func.attr in DURABLE_CALLS
        ):
            found.append((function, f"os.{node.func.attr}"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_only_the_primitive_renames_or_fsyncs():
    stray = [
        f"{rel}:{function}: {call}"
        for path in sorted(SRC.rglob("*.py"))
        if (rel := path.relative_to(SRC).as_posix()) != "durable.py"
        for function, call in _durable_calls(path)
        if (rel, function) not in QUARANTINE_MOVES
    ]
    assert stray == []


def test_the_primitive_is_one_function_of_a_leaf_module():
    calls = _durable_calls(SRC / "durable.py")
    assert {function for function, _ in calls} == {"atomic_open"}
    assert {call for _, call in calls} == {"os.replace", "os.fsync"}
    tree = ast.parse((SRC / "durable.py").read_text())
    imported = [
        node.module or "." for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    ] + [
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.Import) for alias in node.names
    ]
    assert not [m for m in imported if m == "." or m.startswith("repro")]


def test_temp_file_is_named_per_process(tmp_path, monkeypatch):
    renamed = []
    real = os.replace
    monkeypatch.setattr(
        os, "replace",
        lambda src, dst: renamed.append(Path(src).name) or real(src, dst),
    )
    write_atomic(tmp_path / "a.json", "{}\n")
    assert renamed == [f"a.json.tmp{os.getpid()}"]


def test_a_failed_write_leaves_the_old_file_and_no_temp(tmp_path):
    path = tmp_path / "events.ndjson"
    write_atomic(path, b"old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as handle:
            handle.write("half a line")
            raise RuntimeError("killed mid-write")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["events.ndjson"]


def test_fsync_flushes_the_file_and_its_directory(tmp_path, monkeypatch):
    synced = []
    real = os.fsync
    monkeypatch.setattr(
        os, "fsync", lambda fd: synced.append(fd) or real(fd)
    )
    write_atomic(tmp_path / "schedule.json", "{}\n")
    assert synced == []
    write_atomic(tmp_path / "schedule.json", "{}\n", fsync=True)
    assert len(synced) == 2
