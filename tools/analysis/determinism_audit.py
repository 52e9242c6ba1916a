#!/usr/bin/env python3
"""Determinism / bit-identity audit.

The simulator's contract (docs/simulation-model.md, pinned by the bitwise
cross-check tests) is that the event and step engines produce
bit-identical flow times for the same seed on every build.  Three things
quietly break that contract; each gets a rule:

  fp-contract        a sim translation unit compiled without
                     -ffp-contract=off — FMA contraction changes the
                     rounding of a*b+c, so results differ across targets
  dup-fp-formula     a floating-point formula from the watchlist appears
                     outside its home (src/sim/sim_math.h).  Two copies of
                     `(coord - W) / s` can be optimized differently; both
                     engines must call the one inline helper
  unordered-iteration  range-for over an unordered container in sim/sched
                     code — iteration order varies across libstdc++
                     versions and hash seeds; results folded in that order
                     are not reproducible
  entropy-source     randomness or wall-clock entropy outside sim/rng.h —
                     all sim randomness flows through the seeded Rng so a
                     run is its seed

Sites with a ``// lint: allow(<rule>): <reason>`` marker within
ALLOW_WINDOW lines are skipped.
"""

from __future__ import annotations

import glob
import os
import re

from compile_db import ALLOW_WINDOW, Finding, command_for, has_marker

#: Watchlist of FP formulas that must exist at exactly one program point.
#: Each entry: (rule-suffix, regex, description, files in scope).  Scope is
#: deliberately tight per pattern — the engine clock math is watched in the
#: engine TUs, while the lower-bound formulas hoisted into sim_math.h
#: (relaxed job length, FIFO frontier advance) are additionally watched in
#: the analytic users whose bit-identity depends on them: the streamed
#: bounds pipeline and the OPT comparator.  Nothing matches every division
#: in the tree.
ENGINE_FILES = ("src/sim/event_engine.cc", "src/sim/event_engine.h",
                "src/sim/step_engine.cc", "src/sim/step_engine.h")
#: Files where the shared bound formulas must never be re-inlined: the
#: streamed bounds' opt_sim is only bitwise-equal to OptLowerBound's max
#: flow because both call the same two sim_math.h helpers.
BOUND_FILES = ENGINE_FILES + ("src/core/bounds.cc", "src/sched/opt_bound.cc")
HOME = "src/sim/sim_math.h"

FORMULA_PATTERNS = [
    ("time-to-step",
     re.compile(r"\bceil\s*\([^;)]*\*\s*s\w*\b[^;)]*\)"),
     "time -> step index rounding (`ceil(t * s - eps)`)",
     ENGINE_FILES),
    ("completion-dt",
     re.compile(r"-\s*W_?\w*\s*\)\s*/\s*s_?\w*\b"),
     "remaining-work completion delta (`(coord - W) / s`)",
     ENGINE_FILES),
    ("coord-tolerance",
     re.compile(r"\bcoord\w*(?:\[[^\]]*\])?\s*-\s*W_?\w*\s*[<>]=?"),
     "coordinate-due tolerance compare (`coord - W <= eps`)",
     ENGINE_FILES),
    ("step-to-time",
     re.compile(r"static_cast<\s*double\s*>\s*\(\s*\w+(?:\s*\+\s*1)?\s*\)"
                r"\s*/\s*s\w*\b"),
     "step index -> time (`double(step) / s`)",
     ENGINE_FILES),
    ("epsilon-literal",
     re.compile(r"\b1e-9\b"),
     "the sim tolerance literal (use pjsched::sim::kSimEps)",
     BOUND_FILES),
    ("relaxed-length",
     re.compile(r"\b(?:work|W)\w*\s*/\s*\(?\s*m\b"),
     "relaxed job length (`W / m`; use sim::relaxed_job_length)",
     BOUND_FILES),
    ("fifo-frontier",
     re.compile(r"\bmax\s*\(\s*frontier\w*\s*,"),
     "single-machine FIFO frontier advance "
     "(`max(frontier, arrival) + p`; use sim::fifo_frontier_advance)",
     BOUND_FILES),
]

UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*>\s*"
    r"[&*]?\s*([A-Za-z_]\w*)\s*[;,={()]")

RANGE_FOR = re.compile(r"\bfor\s*\(\s*[^;)]*?:\s*([^)]+)\)")

ENTROPY = re.compile(
    r"\bstd::(?:random_device|mt19937(?:_64)?|default_random_engine|"
    r"minstd_rand0?|knuth_b)\b"
    r"|\bsystem_clock\s*::\s*now\b"
    r"|\bthis_thread::get_id\b"
    r"|\bhash\s*<\s*std::thread::id\s*>")

RNG_HOME = ("src/sim/rng.h", "src/sim/rng.cc")


def run(model, raw_texts: dict[str, str], compile_commands: str | None,
        root: str):
    findings: list[Finding] = []
    findings += _check_fp_contract(compile_commands, root)
    findings += _check_dup_formulas(model, raw_texts)
    findings += _check_unordered_iteration(model, raw_texts)
    findings += _check_entropy(model, raw_texts)
    return findings


def _allowed(raw_texts, rel, line, rule) -> bool:
    lines = raw_texts[rel].splitlines()
    return has_marker(lines, line - 1, f"lint: allow({rule})",
                      ALLOW_WINDOW)


def _check_fp_contract(compile_commands, root):
    findings = []
    sim_tus = sorted(glob.glob(os.path.join(root, "src", "sim", "*.cc")))
    for tu in sim_tus:
        rel = os.path.relpath(tu, root).replace(os.sep, "/")
        cmd = command_for(tu, compile_commands)
        if cmd is None:
            if compile_commands and os.path.isfile(compile_commands):
                findings.append(Finding(
                    rel, 1, "fp-contract",
                    "no compile_commands.json entry for this sim TU — it "
                    "is not built with the pjsched target's "
                    "-ffp-contract=off; add it to the target"))
            continue
        if "-ffp-contract=off" not in cmd:
            findings.append(Finding(
                rel, 1, "fp-contract",
                "compiled without -ffp-contract=off — FMA contraction "
                "changes FP rounding and breaks the engines' bit-identity "
                "contract; add the flag to the pjsched target"))
    return findings


def _check_dup_formulas(model, raw_texts):
    findings = []
    for rule_suffix, pat, what, scope in FORMULA_PATTERNS:
        for rel in scope:
            if rel not in model.file_code:
                continue
            code = model.file_code[rel]
            for m in pat.finditer(code):
                line = code.count("\n", 0, m.start()) + 1
                rule = "dup-fp-formula"
                if _allowed(raw_texts, rel, line, rule):
                    continue
                findings.append(Finding(
                    rel, line, rule,
                    f"{what} written inline — this formula's only home is "
                    f"{HOME}; call the shared inline helper so every "
                    "caller rounds identically "
                    f"(matched `{m.group(0).strip()}`)"))
    return findings


def _check_unordered_iteration(model, raw_texts):
    findings = []
    for rel in sorted(model.file_code):
        if not (rel.startswith("src/sim/") or rel.startswith("src/sched/")):
            continue
        code = model.file_code[rel]
        unordered_names = {m.group(1)
                           for m in UNORDERED_DECL.finditer(code)}
        if not unordered_names:
            continue
        for m in RANGE_FOR.finditer(code):
            expr = m.group(1).strip()
            base = re.split(r"\.|->|\[", expr)[0].strip()
            if base in unordered_names or expr in unordered_names:
                line = code.count("\n", 0, m.start()) + 1
                if _allowed(raw_texts, rel, line, "unordered-iteration"):
                    continue
                findings.append(Finding(
                    rel, line, "unordered-iteration",
                    f"range-for over unordered container `{base}` — "
                    "iteration order is hash-seed and libstdc++ "
                    "dependent; sort the keys first or use an ordered "
                    "container if the order feeds results"))
    return findings


def _check_entropy(model, raw_texts):
    findings = []
    for rel in sorted(model.file_code):
        if not (rel.startswith("src/sim/") or rel.startswith("src/sched/")):
            continue
        if rel in RNG_HOME:
            continue
        code = model.file_code[rel]
        for m in ENTROPY.finditer(code):
            line = code.count("\n", 0, m.start()) + 1
            if _allowed(raw_texts, rel, line, "entropy-source"):
                continue
            findings.append(Finding(
                rel, line, "entropy-source",
                f"`{m.group(0)}` introduces entropy outside "
                "src/sim/rng.h — sim results must be a pure function of "
                "the seed; thread all randomness through sim::Rng"))
    return findings
