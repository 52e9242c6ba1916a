#!/usr/bin/env python3
"""Shared compile_commands.json loader for the static-analysis passes.

One implementation of file discovery, build-dir exclusion, compile-arg
lookup, and stale-export detection, imported by the pjsched_analysis
driver and every one of its passes, so they all agree on what "the tree"
is.

Conventions shared by every consumer:

  * discovery is driven off the build's ``compile_commands.json`` (exported
    by every configure: CMAKE_EXPORT_COMPILE_COMMANDS ON), with headers
    globbed from the source tree since they never appear in the export;
  * any path with a ``build*``/ component is excluded, so stale CMake
    caches in build-asan/ etc. are never analyzed;
  * a stale export — one that names files which no longer exist, or that
    predates the newest CMakeLists.txt (the target set may have changed) —
    raises :class:`StaleCompileCommandsError` with a re-configure hint
    instead of silently analyzing a phantom tree.

Also home to the comment/string stripper and marker-window helpers every
rule uses, so "does this line carry a ``// lint: allow(...)``" means the
same thing in every pass.
"""

from __future__ import annotations

import glob
import json
import os
import sys

JUSTIFY_WINDOW = 5  # lines above a relaxed site searched for "order:"
ALLOW_WINDOW = 6  # lines above a site searched for a lint: allow marker


class StaleCompileCommandsError(RuntimeError):
    """compile_commands.json no longer matches the tree; re-run cmake."""


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments(text: str) -> str:
    """Returns `text` with comments and string/char literal *contents*
    blanked (newlines preserved), so rules never fire on prose."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
            elif c == "'":
                state = "char"
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            else:
                out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def has_marker(lines: list[str], line_idx: int, marker: str,
               window: int) -> bool:
    lo = max(0, line_idx - window)
    return any(marker in lines[j] for j in range(lo, line_idx + 1))


def line_of_offset(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def is_in_build_dir(path: str) -> bool:
    return any(part.startswith("build") for part in
               os.path.normpath(path).split(os.sep))


def _load_entries(compile_commands: str) -> list[dict]:
    with open(compile_commands, encoding="utf-8") as f:
        return json.load(f)


def check_staleness(root: str, compile_commands: str) -> None:
    """Raises StaleCompileCommandsError when the export no longer matches
    the tree: a referenced source file is gone (deleted or renamed since
    the last configure), or a CMakeLists.txt is newer than the export (the
    target set may have changed).  Source edits alone are NOT staleness —
    editing a .cc never requires a re-configure."""
    export_mtime = os.path.getmtime(compile_commands)
    cmake_lists = [os.path.join(root, "CMakeLists.txt")]
    cmake_lists += glob.glob(os.path.join(root, "src", "**", "CMakeLists.txt"),
                             recursive=True)
    for cml in cmake_lists:
        if os.path.isfile(cml) and os.path.getmtime(cml) > export_mtime:
            raise StaleCompileCommandsError(
                f"{compile_commands} is older than {os.path.relpath(cml, root)}"
                " — the target set may have changed; re-run"
                " `cmake -B build -S .` to refresh the export")
    for entry in _load_entries(compile_commands):
        path = entry["file"]
        if not os.path.isabs(path):
            path = os.path.join(entry.get("directory", root), path)
        if not os.path.isfile(path):
            raise StaleCompileCommandsError(
                f"{compile_commands} names {path}, which no longer exists —"
                " re-run `cmake -B build -S .` to refresh the export")


def discover_files(root: str, compile_commands: str | None,
                   subdirs: tuple[str, ...] = ("src",),
                   tool: str = "analysis") -> list[str]:
    """Translation units under `root`/<subdir> from compile_commands (or a
    glob fallback), plus headers globbed from the tree; build*/ excluded.

    Raises StaleCompileCommandsError when the export exists but no longer
    matches the tree (see check_staleness)."""
    files: set[str] = set()
    roots = [os.path.join(root, d) for d in subdirs]
    if compile_commands and os.path.isfile(compile_commands):
        check_staleness(root, compile_commands)
        for entry in _load_entries(compile_commands):
            path = entry["file"]
            if not os.path.isabs(path):
                path = os.path.join(entry.get("directory", root), path)
            path = os.path.normpath(path)
            if any(path.startswith(r + os.sep) for r in roots) and \
                    not is_in_build_dir(os.path.relpath(path, root)):
                files.add(path)
    else:
        if compile_commands:
            sys.stderr.write(
                f"{tool}: {compile_commands} not found; globbing "
                f"{'/'.join(subdirs)}/ instead (configure with "
                "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)\n")
        for r in roots:
            files.update(glob.glob(os.path.join(r, "**", "*.cc"),
                                   recursive=True))
    # Headers never appear in compile_commands; glob them from the tree.
    for r in roots:
        files.update(glob.glob(os.path.join(r, "**", "*.h"), recursive=True))
    return sorted(p for p in files
                  if not is_in_build_dir(os.path.relpath(p, root)))


def argv_for(path: str, compile_commands: str | None) -> list[str] | None:
    """The compiler argv of `path`'s compile_commands.json entry, or None
    when the export is absent or has no entry (headers, generated files).
    Handles both entry forms (``command`` string or ``arguments`` list) and
    a ``file`` relative to the entry's ``directory``."""
    if not compile_commands or not os.path.isfile(compile_commands):
        return None
    try:
        for entry in _load_entries(compile_commands):
            entry_path = entry["file"]
            if not os.path.isabs(entry_path):
                entry_path = os.path.join(entry.get("directory", ""),
                                          entry_path)
            if os.path.normpath(entry_path) == os.path.normpath(path):
                if "arguments" in entry:
                    return list(entry["arguments"])
                return entry.get("command", "").split()
    except (OSError, json.JSONDecodeError, KeyError):
        return None
    return None
