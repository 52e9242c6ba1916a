#!/usr/bin/env python3
"""Lock-order pass: extract the static acquired-while-held graph, detect
cycles, and validate it against the documented lock hierarchy.

An edge A -> B means some thread may acquire B while holding A: either a
nested MutexLock in the same function body, or a call made while holding A
to a function whose may-acquire summary contains B.  The graph is emitted
as deterministic DOT (docs/lock-order.dot is the committed golden copy)
and every edge must agree with the ``lock-hierarchy`` block in
docs/static-analysis.md — the prose hierarchy is the source of truth, the
extraction proves the code still matches it.

Rules:
  lock-cycle           the graph has a cycle (potential deadlock)
  undocumented-lock    a mutex in the tree is missing from the hierarchy
  stale-hierarchy      the hierarchy names a mutex that no longer exists
  rank-violation       an edge runs inner -> outer against documented ranks
  wait-lock-edge       a leaf (wait-only) lock is held across another
                       acquisition
  unresolved-lock      a MutexLock argument the model cannot name
"""

from __future__ import annotations

import os
import re

from compile_db import Finding

HIERARCHY_FENCE = re.compile(
    r"```lock-hierarchy\n(.*?)```", re.DOTALL)


def parse_hierarchy(doc_path: str):
    """Parses the ```lock-hierarchy fenced block: one lock per line,
    outermost first, ``<name>`` or ``<name>  leaf`` (wait-only locks that
    must never be held across another acquisition).  Returns
    (ranks: name->int, leaves: set) or raises ValueError."""
    with open(doc_path, encoding="utf-8") as f:
        text = f.read()
    m = HIERARCHY_FENCE.search(text)
    if not m:
        raise ValueError(
            f"{doc_path} has no ```lock-hierarchy fenced block — the "
            "lock-order pass needs the documented hierarchy to validate "
            "against")
    ranks: dict[str, int] = {}
    leaves: set[str] = set()
    rank = 0
    for raw in m.group(1).splitlines():
        line = raw.split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        name = parts[0]
        if len(parts) > 1 and parts[1] == "leaf":
            leaves.add(name)
        else:
            ranks[name] = rank
            rank += 1
    return ranks, leaves


def extract_edges(model):
    """Returns (edges, findings): edges is {(holder, acquired): (file,
    line, context)} using the first site seen in sorted-function order."""
    edges: dict[tuple[str, str], tuple[str, int, str]] = {}
    findings: list[Finding] = []
    for qual in sorted(model.functions):
        fn = model.functions[qual]
        for ev, held in model.walk_held(fn):
            if ev.kind == "unresolved_lock":
                findings.append(Finding(
                    fn.file, ev.line, "unresolved-lock",
                    f"cannot resolve mutex in `{ev.raw}` inside "
                    f"{qual}() — name the lock through a declared "
                    "member/local so the order graph can track it"))
                continue
            if not held:
                continue
            acquired: set[str] = set()
            if ev.kind == "acquire":
                acquired.add(ev.lock)
            elif ev.kind == "cv_wait" and ev.cv_mutex:
                # wait() releases and re-acquires its own mutex; only
                # *other* held locks make that an ordering edge, handled
                # by the blocking pass.  No order edge for the self pair.
                pass
            elif ev.kind == "call":
                target = model.functions.get(ev.callee)
                if target:
                    acquired |= target.may_acquire
            for lock in sorted(acquired):
                for holder in held:
                    if holder == lock:
                        continue  # re-entrant self edge: blocking pass turf
                    key = (holder, lock)
                    if key not in edges:
                        edges[key] = (fn.file, ev.line,
                                      f"{qual}(): {ev.raw}")
    return edges, findings


def find_cycles(edges) -> list[list[str]]:
    graph: dict[str, set[str]] = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    color: dict[str, int] = {}
    stack: list[str] = []
    cycles: list[list[str]] = []

    def dfs(node: str) -> None:
        color[node] = 1
        stack.append(node)
        for nxt in sorted(graph[node]):
            if color.get(nxt, 0) == 0:
                dfs(nxt)
            elif color.get(nxt) == 1:
                cycles.append(stack[stack.index(nxt):] + [nxt])
        stack.pop()
        color[node] = 2

    for node in sorted(graph):
        if color.get(node, 0) == 0:
            dfs(node)
    return cycles


def to_dot(edges, all_locks, leaves=frozenset()) -> str:
    """Deterministic DOT: sorted locks labelled with their files, and sorted
    edges.  No line numbers, so an edit that only moves a declaration or an
    acquisition leaves the graph as it was; findings carry the lines.
    Regenerate with tools/analysis/regen_lock_order.sh."""
    lines = [
        "// Generated by tools/analysis/pjsched_analysis.py --pass "
        "lock-order --dot-out.",
        "// Do not edit: regenerate with tools/analysis/"
        "regen_lock_order.sh.",
        "digraph lock_order {",
        "  rankdir=TB;",
        "  node [shape=box, fontname=\"monospace\"];",
    ]
    for lock in sorted(all_locks):
        file, _line = all_locks[lock]
        shape = ", style=dashed" if lock in leaves else ""
        lines.append(f"  \"{lock}\" [label=\"{lock}\\n{file}\"{shape}];")
    for (a, b) in sorted(edges):
        lines.append(f"  \"{a}\" -> \"{b}\";")
    lines.append("}")
    return "\n".join(lines) + "\n"


def run(model, hierarchy_path: str | None, root: str):
    """Returns (findings, edges, all_locks, leaves)."""
    findings: list[Finding] = []
    edges, findings_x = extract_edges(model)
    findings += findings_x
    all_locks = {}
    for lock, (path, line) in model.all_locks().items():
        all_locks[lock] = (path, line)

    for cyc in find_cycles(edges):
        first = edges.get((cyc[0], cyc[1])) or next(iter(edges.values()))
        findings.append(Finding(
            first[0], first[1], "lock-cycle",
            "lock-order cycle: " + " -> ".join(cyc)
            + " — a thread taking these in different orders can deadlock"))

    leaves: set[str] = set()
    if hierarchy_path:
        try:
            ranks, leaves = parse_hierarchy(hierarchy_path)
        except (OSError, ValueError) as exc:
            findings.append(Finding(
                os.path.relpath(hierarchy_path, root), 1,
                "lock-hierarchy", str(exc)))
            return findings, edges, all_locks, leaves
        documented = set(ranks) | leaves
        for lock in sorted(all_locks):
            if lock not in documented:
                path, line = all_locks[lock]
                findings.append(Finding(
                    path, line, "undocumented-lock",
                    f"{lock} is not in the lock hierarchy in "
                    f"{os.path.relpath(hierarchy_path, root)} — add it at "
                    "its rank (or mark it `leaf` if it only pairs with a "
                    "condition variable)"))
        for name in sorted(documented - set(all_locks)):
            findings.append(Finding(
                os.path.relpath(hierarchy_path, root), 1,
                "stale-hierarchy",
                f"hierarchy lists {name} but no such mutex exists in the "
                "tree — remove the stale entry"))
        for (a, b), (path, line, ctx) in sorted(edges.items()):
            if a in leaves:
                findings.append(Finding(
                    path, line, "wait-lock-edge",
                    f"{a} is documented leaf (wait-only) but is held "
                    f"while acquiring {b} at {ctx}"))
                continue
            if a in ranks and b in ranks and ranks[a] >= ranks[b]:
                findings.append(Finding(
                    path, line, "rank-violation",
                    f"edge {a} -> {b} runs against the documented "
                    f"hierarchy (rank {ranks[a]} -> {ranks[b]}; outer "
                    "locks must have lower rank) at " + ctx))
    return findings, edges, all_locks, leaves
