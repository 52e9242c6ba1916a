#!/usr/bin/env python3
"""pjsched_analysis — the repo's concurrency & determinism analyzer.

Four CI-gating passes over the tree described by compile_commands.json
(see docs/static-analysis.md for the rules and policy):

  lock-order     acquired-while-held graph: cycles, documented-hierarchy
                 validation, DOT emission (docs/lock-order.dot golden)
  blocking       blocking syscalls / CV waits / transitively-blocking
                 calls while a lock is held
  annotations    every mutex wrapped+annotated, multi-writer fields
                 GUARDED_BY; in src/runtime/, explicit memory orders,
                 `// order:` justifications, InlineFn over std::function,
                 interference-aligned per-worker structs
  determinism    -ffp-contract=off on sim TUs, one-program-point FP
                 formulas, no unordered iteration in sim/sched results, no
                 entropy source in src/ outside sim/rng

Comments and string literals are blanked by a comment-aware stripper
(compile_db.strip_comments) before the textual model
(tools/analysis/cpp_model.py) reads the tree, so no rule fires on prose.

Usage:
  pjsched_analysis.py [--root R] [--compile-commands CC]
                      [--pass all|lock-order|blocking|annotations|
                       determinism]
                      [--hierarchy PATH] [--dot-out PATH]
                      [--check-dot PATH] [files...]

Positional files restrict *reported* findings to those paths (the model
is still whole-program — an edge needs both sides).  Exit codes: 0 clean,
1 findings, 2 usage error or stale compile_commands.json.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import annotations_audit
import blocking_under_lock
import determinism_audit
import lock_order
from compile_db import StaleCompileCommandsError, discover_files
from cpp_model import Model

PASSES = ("lock-order", "blocking", "annotations", "determinism")


def build_model(root, files):
    model = Model(root)
    model.add_files(files)
    model.finalize()
    return model


def read_raw(root, files):
    out = {}
    for path in files:
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, encoding="utf-8", errors="replace") as f:
            out[rel] = f.read()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="pjsched_analysis.py",
        description="whole-program concurrency & determinism analyzer")
    ap.add_argument("--root", default=os.getcwd())
    ap.add_argument("--compile-commands", default=None,
                    help="path to compile_commands.json (default: "
                    "<root>/build/compile_commands.json when present)")
    ap.add_argument("--pass", dest="passes", default="all",
                    choices=("all",) + PASSES)
    ap.add_argument("--hierarchy", default=None,
                    help="markdown file holding the ```lock-hierarchy "
                    "block (default: <root>/docs/static-analysis.md when "
                    "present; hierarchy validation is skipped without "
                    "one, cycle detection still runs)")
    ap.add_argument("--dot-out", default=None,
                    help="write the extracted lock-order graph as DOT")
    ap.add_argument("--check-dot", default=None,
                    help="fail unless this DOT file matches the "
                    "extracted graph byte-for-byte")
    ap.add_argument("files", nargs="*",
                    help="restrict reported findings to these paths")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root)
    cc = args.compile_commands
    if cc is None:
        default_cc = os.path.join(root, "build", "compile_commands.json")
        if os.path.isfile(default_cc):
            cc = default_cc
    hierarchy = args.hierarchy
    if hierarchy is None:
        default_h = os.path.join(root, "docs", "static-analysis.md")
        if os.path.isfile(default_h):
            hierarchy = default_h

    try:
        files = discover_files(root, cc, subdirs=("src",),
                               tool="pjsched_analysis")
    except StaleCompileCommandsError as exc:
        sys.stderr.write(f"pjsched_analysis: {exc}\n")
        return 2

    model = build_model(root, files)
    raw_texts = read_raw(root, files)
    selected = PASSES if args.passes == "all" else (args.passes,)

    findings = []
    if "lock-order" in selected:
        lo_findings, edges, all_locks, leaves = lock_order.run(
            model, hierarchy, root)
        findings += lo_findings
        dot = lock_order.to_dot(edges, all_locks, leaves)
        if args.dot_out:
            with open(args.dot_out, "w", encoding="utf-8") as f:
                f.write(dot)
            sys.stderr.write(
                f"pjsched_analysis: wrote {args.dot_out} "
                f"({len(all_locks)} locks, {len(edges)} edges)\n")
        if args.check_dot:
            try:
                with open(args.check_dot, encoding="utf-8") as f:
                    committed = f.read()
            except OSError:
                committed = None
            if committed != dot:
                from compile_db import Finding
                findings.append(Finding(
                    os.path.relpath(args.check_dot, root), 1,
                    "lock-order-dot",
                    "committed lock-order graph does not match the "
                    "extracted one — regenerate with "
                    "tools/analysis/regen_lock_order.sh"))
    if "blocking" in selected:
        findings += blocking_under_lock.run(model, raw_texts)
    if "annotations" in selected:
        findings += annotations_audit.run(model, raw_texts)
    if "determinism" in selected:
        findings += determinism_audit.run(model, raw_texts, cc, root)

    if args.files:
        wanted = {os.path.relpath(os.path.abspath(f), root)
                  .replace(os.sep, "/") for f in args.files}
        findings = [f for f in findings if f.path in wanted]

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f)
    if findings:
        print(f"pjsched_analysis: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"pjsched_analysis: OK ({len(files)} files clean, "
          f"{len(selected)} pass(es))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
