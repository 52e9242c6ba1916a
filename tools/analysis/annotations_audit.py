#!/usr/bin/env python3
"""Annotation-completeness and memory-order audit.

Clang's thread-safety analysis (-Werror=thread-safety-analysis in clang
builds) only checks what is annotated, and nothing in the compiler checks
that an atomic access chose its memory order; this pass closes both gaps
by requiring the annotations and the orders to be written down.

Rules over all of src/:
  raw-mutex          a std::mutex-family member outside src/runtime/
                     mutex.h — use the annotated runtime::Mutex wrapper so
                     capability analysis sees it
  mutex-unannotated  a Mutex member that no GUARDED_BY / PT_GUARDED_BY /
                     REQUIRES / ACQUIRE in its class refers to.  A mutex
                     protecting nothing is either dead weight or guarding
                     data the analyzer cannot see.  Wait-only mutexes
                     (pairing a CondVar, guarding no data) carry a
                     ``// lint: allow(wait-lock): <reason>`` marker.
  unguarded-field    a member field written under a class mutex in >= 2 of
                     the class's methods but declared without GUARDED_BY —
                     multi-writer shared state must be visible to the
                     capability analysis

Rules over src/runtime/ (docs/static-analysis.md, "The `// order:`
convention"):
  implicit-seq-cst     an atomic load/store/RMW that names no
                     std::memory_order, or a compare_exchange naming only
                     the success order.  Calls that forward a caller's
                     order carry ``// lint: allow(implicit-order): <reason>``
  unjustified-relaxed  memory_order_relaxed with no ``// order:`` comment on
                     the line or within JUSTIFY_WINDOW lines above
  atomic-operator      ++/--/+=/-= on a std::atomic member: a seq_cst RMW
                     in disguise
  std-function         std::function (tasks use InlineFn); cold-path uses
                     carry ``// lint: allow(std-function): <reason>``
  interference         a Worker*/Shard* struct holding atomics or a mutex
                     that is not alignas(kDestructiveInterference);
                     snapshots carry ``// lint: allow(alignment): <reason>``
"""

from __future__ import annotations

import re

from compile_db import (ALLOW_WINDOW, JUSTIFY_WINDOW, Finding, has_marker,
                        line_of_offset)

RAW_MUTEX = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?)\s+"
    r"\w+\s*;")

WAIT_LOCK_MARKER = "lint: allow(wait-lock)"

#: Mutating member accesses that count as writes for the guarded-field
#: heuristic.
_WRITE_OPS = (r"(?:=(?!=)|\+=|-=|\*=|/=|\|=|&=|\^=|\+\+|--|"
              r"\.\s*(?:push_back|pop_back|push_front|pop_front|clear|"
              r"erase|insert|emplace|emplace_back|resize|assign|swap)\b|"
              r"->\s*(?:push_back|clear|erase|insert|emplace)\b)")


def _annotation_refs(body: str, mutex: str) -> bool:
    pat = re.compile(
        r"PJSCHED_(?:PT_GUARDED_BY|GUARDED_BY|REQUIRES|REQUIRES_SHARED|"
        r"ACQUIRE|ACQUIRE_SHARED|RELEASE|TRY_ACQUIRE|EXCLUDES)\s*\(\s*"
        + re.escape(mutex) + r"\s*[,)]")
    return bool(pat.search(body))


def run(model, raw_texts: dict[str, str]):
    """`raw_texts` maps rel path -> original (unstripped) file text, used
    for marker and annotation scans (annotations are macros in code, but
    the allow markers live in comments the model blanks)."""
    findings: list[Finding] = []

    for rel in sorted(model.file_code):
        if rel == "src/runtime/mutex.h":
            continue
        code = model.file_code[rel]
        for m in RAW_MUTEX.finditer(code):
            line = code.count("\n", 0, m.start()) + 1
            findings.append(Finding(
                rel, line, "raw-mutex",
                f"`{m.group(0).strip()}` bypasses the annotated "
                "runtime::Mutex wrapper — thread-safety analysis cannot "
                "track it; use runtime::Mutex / runtime::CondVar from "
                "src/runtime/mutex.h"))

    for bare in sorted(model.classes):
        for info in model.classes[bare]:
            code = model.file_code[info.file]
            body = code[info.body_span[0]:info.body_span[1]]
            raw_lines = raw_texts[info.file].splitlines()
            for mutex in sorted(info.mutex_fields):
                if _annotation_refs(body, mutex):
                    continue
                line = info.mutex_lines.get(mutex, 1)
                if has_marker(raw_lines, line - 1, WAIT_LOCK_MARKER,
                              ALLOW_WINDOW):
                    continue
                findings.append(Finding(
                    info.file, line, "mutex-unannotated",
                    f"{info.qualname}::{mutex} guards nothing the "
                    "analyzer can see: no GUARDED_BY/REQUIRES/ACQUIRE in "
                    f"{info.qualname} names it.  Annotate the data it "
                    "protects, or mark it `// lint: allow(wait-lock): "
                    "<reason>` if it only pairs with a condition "
                    "variable"))
            findings += _unguarded_fields(model, info, body)

    for rel in sorted(model.file_code):
        if rel.startswith("src/runtime/"):
            findings += _runtime_conventions(
                rel, model.file_code[rel], raw_texts[rel].splitlines())
    return findings


def _unguarded_fields(model, info, class_body: str):
    """Fields of `info` written inside lock-holding regions of >= 2 of the
    class's methods without a GUARDED_BY on the declaration."""
    findings: list[Finding] = []
    if not info.mutex_fields:
        return findings
    class_locks = {model.canonical_lock(info, mu)
                   for mu in info.mutex_fields}
    methods = [fn for fn in model.functions.values()
               if fn.class_name == info.name
               and fn.file in model._tu_mates(info.file)]
    for fname in sorted(info.fields):
        ftype = info.fields[fname]
        if fname in info.mutex_fields or "atomic" in ftype \
                or "CondVar" in ftype or "condition_variable" in ftype:
            continue
        decl = re.search(
            r"\b" + re.escape(fname) + r"\s+PJSCHED_(?:PT_)?GUARDED_BY",
            class_body)
        if decl:
            continue
        write_pat = re.compile(
            r"(?<![\w.>])" + re.escape(fname) + r"\s*" + _WRITE_OPS)
        writers = []
        for fn in methods:
            if not (fn.direct_locks & class_locks):
                continue
            region = _held_region_text(model, fn, class_locks)
            if write_pat.search(region):
                writers.append(fn)
        if len(writers) >= 2:
            line = 1
            m = re.search(r"\b" + re.escape(fname) + r"\s*"
                          r"(?:PJSCHED_\w+\s*\([^;]*\))?\s*"
                          r"(?:=[^;]*|\{[^;{}]*\})?;", class_body)
            if m:
                line = model.file_code[info.file].count(
                    "\n", 0, info.body_span[0] + m.start()) + 1
            findings.append(Finding(
                info.file, line, "unguarded-field",
                f"{info.qualname}::{fname} is written under a class lock "
                f"in {len(writers)} methods "
                f"({', '.join(sorted(w.qualname for w in writers))}) but "
                "its declaration has no PJSCHED_GUARDED_BY — annotate it "
                "so clang's capability analysis checks every access"))
    return findings


def _held_region_text(model, fn, class_locks) -> str:
    """Approximate text of `fn`'s body where a class lock is held: from
    each acquisition of a class lock to the end of the body (scoped locks
    dominate their block; good enough for a >=2-writers heuristic)."""
    code = model.file_code[fn.file]
    start, end = fn.body_span
    body = code[start:end]
    pieces = []
    for ev, _held in model.walk_held(fn):
        if ev.kind == "acquire" and ev.lock in class_locks:
            # Offset of the event line within the body.
            abs_line_start = 0
            for _ in range(ev.line - 1):
                abs_line_start = code.find("\n", abs_line_start) + 1
            pieces.append(body[max(0, abs_line_start - start):])
            break
    return "".join(pieces)


ATOMIC_OPS = ("load", "store", "exchange", "fetch_add", "fetch_sub",
              "fetch_and", "fetch_or", "fetch_xor", "compare_exchange_weak",
              "compare_exchange_strong")
ATOMIC_CALL = re.compile(r"[.>]\s*(" + "|".join(ATOMIC_OPS) + r")\s*\(")
ATOMIC_DECL = re.compile(r"std::atomic<[^<>]+>\s+(\w+)")
STRUCT_DEF = re.compile(
    r"\b(?:struct|class)\s+(alignas\s*\([^)]*\)\s*)?(\w+)\s*"
    r"(?::[^&|{;]*)?\{")


def _balanced_end(code: str, open_at: int) -> int:
    """Offset of the bracket closing the one at `open_at`."""
    opener = code[open_at]
    closer = {"(": ")", "{": "}"}[opener]
    depth = 0
    for j in range(open_at, len(code)):
        if code[j] == opener:
            depth += 1
        elif code[j] == closer:
            depth -= 1
            if depth == 0:
                return j
    return len(code)


def _runtime_conventions(rel: str, code: str, raw_lines: list[str]):
    findings: list[Finding] = []

    def report(line, rule, marker, message):
        if marker is None or not has_marker(raw_lines, line - 1, marker,
                                            ALLOW_WINDOW):
            findings.append(Finding(rel, line, rule, message))

    for m in ATOMIC_CALL.finditer(code):
        op = m.group(1)
        orders = code[m.end():_balanced_end(code, m.end() - 1)].count(
            "memory_order")
        if orders == 0:
            message = (f"atomic {op}() without an explicit "
                       "std::memory_order (implicit seq_cst); every order "
                       "must be spelled out")
        elif op.startswith("compare_exchange") and orders < 2:
            message = (f"{op}() names only the success order; the failure "
                       "order must be explicit too")
        else:
            continue
        report(line_of_offset(code, m.start()), "implicit-seq-cst",
               "lint: allow(implicit-order)", message)

    for idx, line in enumerate(code.splitlines()):
        if "memory_order_relaxed" in line and not has_marker(
                raw_lines, idx, "order:", JUSTIFY_WINDOW):
            report(idx + 1, "unjustified-relaxed", None,
                   "memory_order_relaxed without an `// order:` "
                   "justification comment on the line or within "
                   f"{JUSTIFY_WINDOW} lines above")
        if "std::function" in line:
            report(idx + 1, "std-function", "lint: allow(std-function)",
                   "std::function in src/runtime/ (hot-path callables "
                   "must be InlineFn); if this is a justified cold-path "
                   "use, add `// lint: allow(std-function): <reason>`")

    names = set(ATOMIC_DECL.findall(code))
    if names:
        alt = "|".join(re.escape(n) for n in sorted(names))
        for m in re.finditer(r"(?:(?:\+\+|--)\s*(?:\w+\.)*(" + alt +
                             r")\b|\b(" + alt + r")\s*(?:\+\+|--|\+=|-=))",
                             code):
            report(line_of_offset(code, m.start()), "atomic-operator", None,
                   "operator ++/--/+=/-= on std::atomic "
                   f"`{m.group(1) or m.group(2)}` is an implicit seq_cst "
                   "RMW; use an explicit fetch_add/fetch_sub with a named "
                   "order")

    for m in STRUCT_DEF.finditer(code):
        alignas_spec, name = m.group(1), m.group(2)
        if not re.search(r"Worker|Shard", name) or (
                alignas_spec and "kDestructiveInterference" in alignas_spec):
            continue
        body = code[m.end():_balanced_end(code, m.end() - 1)]
        if re.search(r"std::atomic<|(?:^|\s)Mutex\s+\w+|std::mutex", body):
            report(line_of_offset(code, m.start()), "interference",
                   "lint: allow(alignment)",
                   f"shared mutable per-worker struct `{name}` "
                   "(atomic/mutex members) must be "
                   "alignas(kDestructiveInterference) so false sharing is "
                   "structurally impossible, or carry `// lint: "
                   "allow(alignment): <reason>`")
    return findings
