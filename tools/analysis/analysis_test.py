#!/usr/bin/env python3
"""Tests for pjsched_analysis: every rule of the four passes has pass and
fail fixtures in testdata/, staged into a temporary repo layout so each
rule's path scope engages, plus a gate test that runs the analyzer over
the real tree with the committed golden lock-order graph — the same
invocation the `lint` CMake target uses.

ctest splits the file by class: `lint_test` runs ConventionCase, and
`analysis_test` runs every other case class (tools/analysis/CMakeLists.txt
names them).  Run without arguments, the file runs all of them."""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
DRIVER = os.path.join(HERE, "pjsched_analysis.py")
TESTDATA = os.path.join(HERE, "testdata")
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
#: The gate's discovery floor: a clean result over fewer files means the
#: export or root is wrong and the pass is vacuous (the tree has ~100).
MIN_FILES = 60


def run_analysis(args, cwd=None):
    proc = subprocess.run(
        [sys.executable, DRIVER] + args,
        capture_output=True, text=True, cwd=cwd, check=False)
    return proc.returncode, proc.stdout, proc.stderr


class Staging(unittest.TestCase):
    """Stages fixtures into a tmp repo layout and runs one pass."""

    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="pjsched_analysis_test_")
        os.makedirs(os.path.join(self.tmp, "src", "runtime"))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def stage(self, fixture, rel_dir, rename=None):
        dst_dir = os.path.join(self.tmp, rel_dir)
        os.makedirs(dst_dir, exist_ok=True)
        dst = os.path.join(dst_dir, rename or fixture)
        shutil.copy(os.path.join(TESTDATA, fixture), dst)
        return dst

    def analyze(self, passname, *extra):
        return run_analysis(["--root", self.tmp, "--pass", passname,
                             *extra])

    def assert_rule_fires(self, passname, rule, min_findings=1, extra=()):
        code, out, err = self.analyze(passname, *extra)
        self.assertEqual(code, 1,
                         f"expected findings, got code {code}:\n{out}\n{err}")
        hits = [l for l in out.splitlines() if f"[{rule}]" in l]
        self.assertGreaterEqual(
            len(hits), min_findings,
            f"expected >={min_findings} [{rule}] findings, got:\n{out}")
        return hits

    def assert_clean(self, passname, extra=()):
        code, out, err = self.analyze(passname, *extra)
        self.assertEqual(code, 0, f"expected clean, got:\n{out}\n{err}")

    def hierarchy(self, name="hierarchy.md"):
        return ("--hierarchy", os.path.join(TESTDATA, name))


class FixtureCase(Staging):
    """The lock-order, blocking, mutex-annotation and floating-point
    determinism rules, and file discovery."""

    # lock-order -----------------------------------------------------------
    def test_lock_cycle_fail(self):
        self.stage("lock_cycle_fail.h", "src/runtime")
        self.assert_rule_fires("lock-order", "lock-cycle")

    def test_interprocedural_cycle_fail(self):
        self.stage("interproc_cycle_fail.h", "src/runtime")
        self.assert_rule_fires("lock-order", "lock-cycle")

    def test_lock_order_pass(self):
        self.stage("lock_order_pass.h", "src/runtime")
        self.assert_clean("lock-order")

    def test_unresolved_lock_fail(self):
        self.stage("unresolved_lock_fail.h", "src/runtime")
        self.assert_rule_fires("lock-order", "unresolved-lock")

    def test_hierarchy_pass(self):
        self.stage("hierarchy_pass.h", "src/runtime")
        self.assert_clean("lock-order", extra=self.hierarchy())

    def test_rank_violation_fail(self):
        self.stage("rank_violation_fail.h", "src/runtime")
        self.assert_rule_fires("lock-order", "rank-violation",
                               extra=self.hierarchy())

    def test_wait_lock_edge_fail(self):
        self.stage("wait_lock_edge_fail.h", "src/runtime")
        self.assert_rule_fires("lock-order", "wait-lock-edge",
                               extra=self.hierarchy())

    def test_undocumented_lock_fail(self):
        self.stage("undocumented_lock_fail.h", "src/runtime")
        self.assert_rule_fires("lock-order", "undocumented-lock",
                               extra=self.hierarchy())

    def test_stale_hierarchy_fail(self):
        self.stage("hierarchy_pass.h", "src/runtime")
        self.assert_rule_fires("lock-order", "stale-hierarchy",
                               extra=self.hierarchy("hierarchy_stale.md"))

    def write_dot(self):
        dot = os.path.join(self.tmp, "lock-order.dot")
        code, out, err = self.analyze("lock-order", "--dot-out", dot)
        self.assertEqual(code, 0, out + err)
        return dot

    def test_dot_out_and_check_roundtrip(self):
        self.stage("lock_order_pass.h", "src/runtime")
        dot = self.write_dot()
        self.assert_clean("lock-order", extra=("--check-dot", dot))
        with open(dot, "a", encoding="utf-8") as f:
            f.write("// drift\n")
        self.assert_rule_fires("lock-order", "lock-order-dot",
                               extra=("--check-dot", dot))

    # The graph pins locks and edges, not the lines they sit on.
    def edit(self, path, old, new):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        self.assertIn(old, text)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text.replace(old, new, 1))

    def test_dot_ignores_moved_locks(self):
        src = self.stage("lock_order_pass.h", "src/runtime")
        dot = self.write_dot()
        self.edit(src, "class Ordered {", "\n\n\nclass Ordered {")
        self.edit(src, "  Mutex a_;", "\n  Mutex a_;")
        self.assert_clean("lock-order", extra=("--check-dot", dot))

    def test_dot_catches_added_lock(self):
        src = self.stage("lock_order_pass.h", "src/runtime")
        dot = self.write_dot()
        self.edit(src, "  Mutex b_;", "  Mutex b_;\n  Mutex c_;")
        self.assert_rule_fires("lock-order", "lock-order-dot",
                               extra=("--check-dot", dot))

    def test_dot_catches_added_edge(self):
        src = self.stage("lock_order_pass.h", "src/runtime")
        self.edit(src, "  Mutex b_;", "  Mutex b_;\n  Mutex c_;")
        self.edit(src, "  void take_b() {",
                  "  void take_c() { MutexLock l(c_); }\n  void take_b() {")
        dot = self.write_dot()
        self.edit(src, "void take_c() { MutexLock l(c_); }",
                  "void take_c() { MutexLock l1(b_); MutexLock l2(c_); }")
        self.assert_rule_fires("lock-order", "lock-order-dot",
                               extra=("--check-dot", dot))

    # blocking -------------------------------------------------------------
    def test_blocking_syscall_fail(self):
        self.stage("blocking_fail.cc", "src/service")
        self.assert_rule_fires("blocking", "blocking-under-lock")

    def test_blocking_interprocedural_fail(self):
        self.stage("blocking_interproc_fail.cc", "src/service")
        self.assert_rule_fires("blocking", "blocking-under-lock")

    def test_cv_extra_lock_fail(self):
        self.stage("cv_extra_lock_fail.cc", "src/service")
        self.assert_rule_fires("blocking", "cv-wait-extra-lock")

    def test_blocking_pass(self):
        self.stage("blocking_pass.cc", "src/service")
        self.assert_clean("blocking")

    def test_blocking_sibling_block_pass(self):
        self.stage("blocking_sibling_pass.cc", "src/service")
        self.assert_clean("blocking")

    def test_blocking_inside_locked_block_fail(self):
        self.stage("blocking_sibling_fail.cc", "src/service")
        self.assert_rule_fires("blocking", "blocking-under-lock")

    def test_blocking_allow_marker_pass(self):
        self.stage("blocking_allow_pass.cc", "src/service")
        self.assert_clean("blocking")

    def test_mutex_h_exempt(self):
        # The CV primitive itself waits under its own lock by definition.
        self.stage("blocking_fail.cc", "src/runtime", rename="mutex.h")
        self.assert_clean("blocking")

    # annotations ----------------------------------------------------------
    def test_raw_mutex_fail(self):
        self.stage("raw_mutex_fail.h", "src/service")
        self.assert_rule_fires("annotations", "raw-mutex")

    def test_mutex_unannotated_fail(self):
        self.stage("mutex_unannotated_fail.h", "src/service")
        self.assert_rule_fires("annotations", "mutex-unannotated")

    def test_unguarded_field_fail(self):
        self.stage("unguarded_field_fail.h", "src/service")
        self.assert_rule_fires("annotations", "unguarded-field")

    def test_annotations_pass(self):
        self.stage("annotations_pass.h", "src/service")
        self.assert_clean("annotations")

    # determinism ----------------------------------------------------------
    def test_dup_formula_fail(self):
        self.stage("dup_formula_fail.cc", "src/sim",
                   rename="event_engine.cc")
        self.assert_rule_fires("determinism", "dup-fp-formula",
                               min_findings=4)

    def test_determinism_pass(self):
        self.stage("determinism_pass.cc", "src/sim",
                   rename="event_engine.cc")
        self.assert_clean("determinism")

    def test_formula_scope_is_engines_only(self):
        # The same formulas elsewhere in src/sim are not the engines'
        # bit-identity surface.
        self.stage("dup_formula_fail.cc", "src/sim", rename="helpers.cc")
        self.assert_clean("determinism")

    def test_dup_bound_formula_fail(self):
        # The bound formulas hoisted into sim_math.h (relaxed job length,
        # FIFO frontier advance) are watched in the streamed-bounds
        # pipeline: re-inlining them there silently forks the rounding from
        # OptLowerBound's.
        self.stage("dup_bound_formula_fail.cc", "src/core",
                   rename="bounds.cc")
        self.assert_rule_fires("determinism", "dup-fp-formula",
                               min_findings=2)

    def test_dup_bound_formula_scope_in_opt_bound(self):
        self.stage("dup_bound_formula_fail.cc", "src/sched",
                   rename="opt_bound.cc")
        self.assert_rule_fires("determinism", "dup-fp-formula",
                               min_findings=2)

    def test_bound_formula_scope_excludes_other_files(self):
        # Outside the watched bound/engine files the same expressions are
        # legitimate local math.
        self.stage("dup_bound_formula_fail.cc", "src/sched",
                   rename="fifo.cc")
        self.assert_clean("determinism")

    def test_unordered_iteration_fail(self):
        self.stage("unordered_iter_fail.cc", "src/sched")
        self.assert_rule_fires("determinism", "unordered-iteration")

    def _write_compile_commands(self, flag):
        tu = self.stage("determinism_pass.cc", "src/sim",
                        rename="engine.cc")
        cc = os.path.join(self.tmp, "compile_commands.json")
        cmd = f"g++ {flag} -std=c++20 -c {tu} -o engine.o".strip()
        with open(cc, "w", encoding="utf-8") as f:
            json.dump([{"directory": self.tmp, "command": cmd,
                        "file": tu}], f)
        return cc

    def test_fp_contract_fail(self):
        cc = self._write_compile_commands("")
        self.assert_rule_fires("determinism", "fp-contract",
                               extra=("--compile-commands", cc))

    def test_fp_contract_pass(self):
        cc = self._write_compile_commands("-ffp-contract=off")
        self.assert_clean("determinism", extra=("--compile-commands", cc))

    # discovery ------------------------------------------------------------
    def test_build_dirs_excluded(self):
        self.stage("lock_cycle_fail.h", "src/runtime/build-scratch")
        self.stage("implicit_order_fail.h", "src/runtime/build-scratch")
        self.stage("implicit_order_pass.h", "src/runtime")
        self.assert_clean("all")

    def test_stale_compile_commands(self):
        tu = self.stage("determinism_pass.cc", "src/sim",
                        rename="engine.cc")
        cc = os.path.join(self.tmp, "compile_commands.json")
        with open(cc, "w", encoding="utf-8") as f:
            json.dump([{"directory": self.tmp, "command": "g++ -c gone.cc",
                        "file": os.path.join(self.tmp, "gone.cc")}], f)
        code, out, err = self.analyze("determinism",
                                      "--compile-commands", cc)
        self.assertEqual(code, 2, out + err)
        self.assertIn("no longer exists", err)
        del tu


class ConventionCase(Staging):
    """The src/runtime/ conventions (memory orders, type erasure, false
    sharing) of the annotations pass and the entropy-source ban of the
    determinism pass; ctest runs these as `lint_test`."""

    # annotations: src/runtime/ conventions --------------------------------
    def test_implicit_order_fail(self):
        # load, store, fetch_add without orders + single-order CAS = 4.
        self.stage("implicit_order_fail.h", "src/runtime")
        self.assert_rule_fires("annotations", "implicit-seq-cst",
                               min_findings=4)

    def test_implicit_order_pass(self):
        self.stage("implicit_order_pass.h", "src/runtime")
        self.assert_clean("annotations")

    def test_runtime_rules_scoped_to_runtime(self):
        # The same violating fixture outside src/runtime/ is not checked.
        self.stage("implicit_order_fail.h", "src/sched")
        self.assert_clean("annotations")

    def test_relaxed_fail(self):
        self.stage("relaxed_fail.h", "src/runtime")
        self.assert_rule_fires("annotations", "unjustified-relaxed")

    def test_relaxed_pass(self):
        self.stage("relaxed_pass.h", "src/runtime")
        self.assert_clean("annotations")

    def test_atomic_operator_fail(self):
        self.stage("atomic_operator_fail.h", "src/runtime")
        self.assert_rule_fires("annotations", "atomic-operator",
                               min_findings=2)

    def test_std_function_fail(self):
        self.stage("std_function_fail.h", "src/runtime")
        self.assert_rule_fires("annotations", "std-function")

    def test_std_function_pass(self):
        self.stage("std_function_pass.h", "src/runtime")
        self.assert_clean("annotations")

    def test_interference_fail(self):
        self.stage("interference_fail.h", "src/runtime")
        self.assert_rule_fires("annotations", "interference")

    def test_interference_pass(self):
        self.stage("interference_pass.h", "src/runtime")
        self.assert_clean("annotations")

    # determinism: entropy sources -----------------------------------------
    def test_entropy_fail(self):
        # mt19937, random_device, rand(), system_clock, and the thread id
        # (hashed, and read) = 6.
        self.stage("entropy_fail.cc", "src/sim")
        self.assert_rule_fires("determinism", "entropy-source",
                               min_findings=6)

    def test_entropy_fail_outside_sim_sched(self):
        # Randomness, wall-clock reads and thread identity are banned in
        # all of src/.
        self.stage("entropy_fail.cc", "src/util")
        self.assert_rule_fires("determinism", "entropy-source",
                               min_findings=6)

    def test_entropy_mt19937_in_workload(self):
        # The workload generator is part of the seed -> result contract.
        self.stage("entropy_fail.cc", "src/workload")
        hits = self.assert_rule_fires("determinism", "entropy-source")
        self.assertTrue(any("std::mt19937" in h for h in hits), hits)

    def test_thread_identity_banned_in_runtime(self):
        # The runtime names a worker by its index, never by its thread id,
        # so thread identity is banned there as in sim/sched.
        self.stage("entropy_fail.cc", "src/sched")
        self.stage("entropy_fail.cc", "src/runtime")
        hits = self.assert_rule_fires("determinism", "entropy-source")
        self.assertEqual({h.split("/")[1] for h in hits if "get_id" in h},
                         {"sched", "runtime"}, hits)

    def test_entropy_rng_exempt(self):
        self.stage("entropy_fail.cc", "src/sim", rename="rng.cc")
        self.assert_clean("determinism")


class GateCase(unittest.TestCase):
    """The real tree must be clean, match the committed golden lock-order
    graph, and have been discovered at all — the lint target's run."""

    def test_repo_is_clean(self):
        golden = os.path.join(REPO_ROOT, "docs", "lock-order.dot")
        self.assertTrue(os.path.isfile(golden),
                        "docs/lock-order.dot missing — run "
                        "tools/analysis/regen_lock_order.sh")
        args = ["--root", REPO_ROOT, "--check-dot", golden]
        # ctest names the running build's database; a hand run falls back
        # to build/'s.
        compile_commands = os.environ.get(
            "PJSCHED_COMPILE_COMMANDS",
            os.path.join(REPO_ROOT, "build", "compile_commands.json"))
        if os.path.isfile(compile_commands):
            args += ["--compile-commands", compile_commands]
        code, out, err = run_analysis(args)
        self.assertEqual(
            code, 0,
            "pjsched_analysis found violations in the tree (a "
            "lock-order-dot finding means docs/lock-order.dot drifted — "
            f"run tools/analysis/regen_lock_order.sh):\n{out}\n{err}")
        m = re.search(r"OK \((\d+) files clean", out)
        self.assertIsNotNone(m, out)
        self.assertGreaterEqual(
            int(m.group(1)), MIN_FILES,
            "discovery is broken, the clean result is vacuous:\n" + out)


if __name__ == "__main__":
    unittest.main()
