#!/usr/bin/env python3
"""A lightweight whole-program C++ model for the concurrency passes.

Reads the tree as comment-aware text over compile_commands-discovered
files (see compile_db.py) and recovers its structure: brace-matched
namespace/class/function scopes, a registry of classes with their members
and mutex fields, per-function lock-acquisition events with scope extents,
receiver-resolved call sites, and fixpoint "may acquire"/"may block"
summaries for interprocedural edges.

The model is deliberately conservative where C++ is undecidable from text:

  * a call is followed only when its receiver chain resolves to a class in
    the registry (member-variable types, local/param declarations, and a
    per-translation-unit unique-field fallback) or, receiverless, to a
    method of the enclosing class / a free function in the same file.  An
    unresolvable call contributes nothing — no guessed edges;
  * a `MutexLock` whose argument cannot be resolved to a registered mutex
    is surfaced as its own finding (the lock-order pass refuses to guess);
  * `lock.unlock()` / `lock.lock()` pairs on a scoped lock toggle the
    held-set, so the watchdog's release-around-the-callback pattern is
    modeled, not flagged.

Scope: the passes feed it src/runtime + src/service, small enough that the
text-level model stays exact in practice — the fixtures pin every
construct the real tree uses (nested scopes, member-of-member receivers,
unique-field fallback, temporary release).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

from compile_db import strip_comments

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "throw",
    "new", "delete", "case", "default", "do", "else", "alignas", "alignof",
    "decltype", "static_assert", "noexcept", "assert", "defined",
}

#: Names whose *call* blocks the calling thread.  Syscall-flavored names
#: are matched even when the callee cannot be resolved (they never resolve:
#: libc has no registry entry); `sleep_for`/`sleep_until`/`join`/`wait*`
#: cover std::thread and condition variables.
BLOCKING_NAMES = {
    "poll", "ppoll", "select", "pselect", "epoll_wait", "epoll_pwait",
    "accept", "accept4", "connect", "recv", "recvfrom", "recvmsg", "send",
    "sendto", "sendmsg", "read", "write", "pread", "pwrite", "readv",
    "writev", "fsync", "fdatasync", "sleep", "usleep", "nanosleep",
    "sleep_for", "sleep_until", "join",
}

CV_WAIT_NAMES = {"wait", "wait_for", "wait_until"}

MUTEX_TYPES = {"Mutex", "runtime::Mutex"}

#: Wrappers unwrapped when resolving a member/local's class: the receiver
#: `io_shards_[i]->mu` reaches IoShard through vector<unique_ptr<IoShard>>.
_UNWRAP = re.compile(
    r"^(?:std::)?(?:vector|deque|array|optional|shared_ptr|unique_ptr)\s*<"
    r"\s*(.*?)\s*>?\s*$")

_PP_LINE = re.compile(r"^[ \t]*#.*$", re.MULTILINE)

#: Access labels glued to the front of a statement head ("private: struct
#: Shard {") are noise for classification.
_ACCESS_LABEL = re.compile(r"^(?:\s*(?:public|private|protected)\s*:)+")

_CLASS_HEAD = re.compile(
    r"^(?:template\s*<[^{}]*>\s*)?(?:class|struct)\s+"
    r"(?:alignas\s*\([^)]*\)\s*|PJSCHED_\w+\s*(?:\([^)]*\))?\s*)*"
    r"([A-Za-z_]\w*)")

#: Head decorations that legitimately carry parens before a class name.
_HEAD_DECOR = re.compile(r"(?:alignas|PJSCHED_\w+)\s*\([^)]*\)")

_FIELD_DECL = re.compile(
    r"^\s*(?:mutable\s+)?(?:static\s+)?(?:const\s+)?"
    r"([A-Za-z_][\w:]*(?:\s*<[^;=(){}]*>)?)"
    r"(?:\s*([&*])\s*|\s+)"
    r"([A-Za-z_]\w*)\s*"
    r"(?:PJSCHED_\w+\s*\([^;]*\))?\s*"
    r"(?:=[^;]*|\{[^;{}]*\})?;", re.MULTILINE)

_LOCK_DECL = re.compile(
    r"\b(?:runtime::)?MutexLock\s+(\w+)\s*[({]\s*([^;)}]*?)\s*[)}]\s*;")

_CALL = re.compile(
    r"((?:[A-Za-z_]\w*(?:\[[^\]]*\])?\s*(?:\.|->)\s*)*)"
    r"(?:std::)?(?:this_thread::)?([A-Za-z_]\w*)\s*\(")

_LOCAL_DECL_TMPL = (
    r"(?:^|[(,;{{]|\bfor\s*\(\s*)\s*(?:const\s+)?"
    r"([A-Za-z_][\w:]*(?:\s*<[^;({{)]*>)?)\s*[&*]*\s*\b{name}\b\s*[=:,;)]")


@dataclass
class ClassInfo:
    name: str                      # bare name, e.g. "IoShard"
    qualname: str                  # nesting path, e.g. "Daemon::IoShard"
    file: str
    fields: dict = field(default_factory=dict)        # name -> type string
    mutex_fields: set = field(default_factory=set)    # names of Mutex fields
    mutex_lines: dict = field(default_factory=dict)   # mutex name -> line
    body_span: tuple = (0, 0)


@dataclass
class FunctionInfo:
    qualname: str                  # "ThreadPool::submit" or "free_fn"
    class_name: str | None         # bare enclosing/owning class name
    file: str
    body_span: tuple               # (start, end) offsets into stripped code
    # Filled by the event extractor:
    direct_locks: set = field(default_factory=set)
    calls: list = field(default_factory=list)          # resolved qualnames
    direct_blocking: bool = False
    # Fixpoint summaries:
    may_acquire: set = field(default_factory=set)
    may_block: bool = False


@dataclass
class LockEvent:
    """One op inside a function body, in source order."""
    kind: str          # acquire | call | blocking | cv_wait | unresolved_lock
    line: int
    lock: str | None = None       # canonical lock (acquire/unresolved)
    var: str | None = None        # MutexLock variable name (acquire)
    offset: int = 0               # offset of the op in the function body
    block_end: int = 0            # acquire: offset of the '}' closing its
                                  # block (body length at function scope)
    callee: str | None = None     # resolved qualname (call) or raw name
    raw: str = ""                 # source text for messages
    cv_mutex: str | None = None   # canonical mutex named by a CV wait


class Model:
    """Registry + per-function events over a set of files."""

    def __init__(self, root: str):
        self.root = root
        self.classes: dict[str, list[ClassInfo]] = {}   # bare name -> infos
        self.typedefs: dict[str, str] = {}              # alias -> underlying
        self.functions: dict[str, FunctionInfo] = {}    # qualname -> info
        self.free_by_file: dict[str, dict[str, str]] = {}  # file -> name->qn
        self.file_code: dict[str, str] = {}             # rel path -> stripped
        self.file_scopes: dict[str, list] = {}          # rel -> scope list
        self.events: dict[str, list[LockEvent]] = {}    # fn qualname -> ops

    # -- construction ------------------------------------------------------

    def add_files(self, paths: list[str]) -> None:
        for path in paths:
            rel = os.path.relpath(path, self.root).replace(os.sep, "/")
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
            code = _PP_LINE.sub(lambda m: " " * len(m.group(0)),
                                strip_comments(text))
            self.file_code[rel] = code
            self._scan_scopes(rel, code)
        self._register_typedefs()
        self._register_fields()

    def finalize(self) -> None:
        """Extracts per-function events and runs the summary fixpoint.
        Call after every add_files()."""
        for fn in self.functions.values():
            self.events[fn.qualname] = self._extract_events(fn)
        self._fixpoint()

    # -- scope scanning ----------------------------------------------------

    def _scan_scopes(self, rel: str, code: str) -> None:
        """Single pass: classify every top-level-ish brace scope into
        namespace / class / function, recording spans."""
        scopes = []          # (kind, name, start, end, class_stack)
        stack = []           # (kind, name, open_depth)
        class_stack = []     # bare names of enclosing classes
        depth = 0
        seg_start = 0        # start of the current statement head
        i, n = 0, len(code)
        while i < n:
            c = code[i]
            if c in ";":
                seg_start = i + 1
            elif c == "{":
                head = code[seg_start:i].strip()
                kind, name = self._classify_head(head, in_function=any(
                    k == "function" for k, _, _ in stack))
                stack.append((kind, name, depth))
                if kind == "class":
                    class_stack.append(name)
                    scopes.append([kind, name, i + 1, None,
                                   tuple(class_stack)])
                elif kind == "function":
                    scopes.append([kind, name, i + 1, None,
                                   tuple(class_stack)])
                depth += 1
                seg_start = i + 1
            elif c == "}":
                depth -= 1
                if stack and stack[-1][2] == depth:
                    kind, name, _ = stack.pop()
                    if kind in ("class", "function"):
                        for s in reversed(scopes):
                            if s[3] is None and s[0] == kind and s[1] == name:
                                s[3] = i
                                break
                    if kind == "class" and class_stack:
                        class_stack.pop()
                seg_start = i + 1
            i += 1
        self.file_scopes[rel] = scopes
        # Register classes and functions.
        for kind, name, start, end, cls_stack in scopes:
            if end is None:
                end = len(code)
            if kind == "class":
                info = ClassInfo(name=name, qualname="::".join(cls_stack),
                                 file=rel, body_span=(start, end))
                self.classes.setdefault(name, []).append(info)
            elif kind == "function":
                cls = None
                if "::" in name:
                    cls = name.split("::")[-2]
                    qual = name
                elif cls_stack:
                    cls = cls_stack[-1]
                    qual = "::".join(cls_stack) + "::" + name
                else:
                    qual = name
                    self.free_by_file.setdefault(rel, {})[name] = qual
                # Inner-first registration wins for duplicate names;
                # out-of-line definitions override in-class declarations of
                # the same qualname only if longer (real bodies beat stubs).
                existing = self.functions.get(qual)
                if existing is None or (end - start) > (
                        existing.body_span[1] - existing.body_span[0]):
                    self.functions[qual] = FunctionInfo(
                        qualname=qual, class_name=cls, file=rel,
                        body_span=(start, end))

    @staticmethod
    def _classify_head(head: str, in_function: bool) -> tuple[str, str]:
        head = _ACCESS_LABEL.sub("", head).strip()
        if not head:
            return ("block", "")
        first = head.split(None, 1)[0]
        if first == "namespace":
            parts = head.split()
            return ("namespace", parts[1] if len(parts) > 1 else "<anon>")
        if first == "extern":
            return ("block", "")
        m = _CLASS_HEAD.match(head)
        if m and first != "enum" and "enum" not in head.split("{")[0].split():
            # A class head never contains a parameter list before the name
            # (alignas(...) and PJSCHED_*(...) decorations excepted).
            before = _HEAD_DECOR.sub("", head[:m.start(1)])
            if "(" not in before:
                return ("class", m.group(1))
        if in_function:
            return ("block", "")
        if first in KEYWORDS:
            return ("block", "")
        paren = head.find("(")
        if paren < 0:
            return ("block", "")
        pre = head[:paren].rstrip()
        m2 = re.search(r"([A-Za-z_~][\w]*(?:::[A-Za-z_~][\w]*)*)$", pre)
        if not m2:
            return ("block", "")
        name = m2.group(1)
        base = name.split("::")[-1]
        if base in KEYWORDS or base.startswith("operator"):
            return ("block", "")
        return ("function", name)

    # -- registry ----------------------------------------------------------

    def _register_typedefs(self) -> None:
        using = re.compile(r"\busing\s+(\w+)\s*=\s*([^;]+);")
        for code in self.file_code.values():
            for m in using.finditer(code):
                self.typedefs[m.group(1)] = m.group(2).strip()

    def _register_fields(self) -> None:
        for infos in self.classes.values():
            for info in infos:
                code = self.file_code[info.file]
                body = code[info.body_span[0]:info.body_span[1]]
                # Blank nested class and method bodies so only this class's
                # own field declarations are parsed.
                body = self._blank_nested(info, body)
                for m in _FIELD_DECL.finditer(body):
                    type_str, sigil, name = m.group(1), m.group(2), \
                        m.group(3)
                    if type_str.split("::")[-1] in ("return", "using") \
                            or name == "operator":
                        continue
                    info.fields[name] = type_str
                    # A reference member is a borrow, not the lock itself
                    # (MutexLock's `Mutex& mu_`) — never a registry lock.
                    if type_str in MUTEX_TYPES and sigil is None:
                        info.mutex_fields.add(name)
                        line = code.count(
                            "\n", 0, info.body_span[0] + m.start(3)) + 1
                        info.mutex_lines[name] = line

    def _blank_nested(self, info: ClassInfo, body: str) -> str:
        out = list(body)
        base = info.body_span[0]
        for kind, _name, start, end, _cls in self.file_scopes[info.file]:
            if kind in ("class", "function") and end is not None and \
                    start > base and end <= info.body_span[1]:
                for j in range(start - base, end - base):
                    if out[j] != "\n":
                        out[j] = " "
        return "".join(out)

    # -- name resolution ---------------------------------------------------

    def class_info(self, bare: str, prefer_file: str | None = None) \
            -> ClassInfo | None:
        infos = self.classes.get(bare)
        if not infos:
            return None
        if len(infos) > 1 and prefer_file:
            mates = self._tu_mates(prefer_file)
            for info in infos:
                if info.file in mates:
                    return info
        return infos[0]

    def _tu_mates(self, rel: str) -> set[str]:
        stem = rel.rsplit(".", 1)[0]
        return {rel, stem + ".h", stem + ".cc"}

    def canonical_lock(self, cls: ClassInfo, mutex: str) -> str:
        return f"{cls.qualname}::{mutex}"

    def _strip_type(self, type_str: str) -> str:
        """Unwraps containers/pointers and namespaces down to a registry
        candidate bare class name."""
        t = type_str.strip()
        for alias, underlying in self.typedefs.items():
            if t == alias or t.endswith("::" + alias):
                t = underlying
                break
        for _ in range(4):
            m = _UNWRAP.match(t)
            if not m:
                break
            t = m.group(1).strip()
            for alias, underlying in self.typedefs.items():
                if t == alias or t.endswith("::" + alias):
                    t = underlying
                    break
        t = t.split("<")[0].strip()
        return t.split("::")[-1]

    def resolve_base_type(self, fn: FunctionInfo, base: str,
                          before_offset: int) -> ClassInfo | None:
        """Type of identifier `base` at a point in `fn`: local/param
        declarations first, then members of the enclosing class."""
        code = self.file_code[fn.file]
        body = code[fn.body_span[0]:fn.body_span[0] + before_offset]
        # Include the signature: parameters are declared before the body.
        sig_start = max(0, fn.body_span[0] - 400)
        searchable = code[sig_start:fn.body_span[0]] + body
        pat = re.compile(_LOCAL_DECL_TMPL.format(name=re.escape(base)))
        last = None
        for m in pat.finditer(searchable):
            last = m
        if last:
            bare = self._strip_type(last.group(1))
            info = self.class_info(bare, prefer_file=fn.file)
            if info:
                return info
        if fn.class_name:
            cls = self.class_info(fn.class_name, prefer_file=fn.file)
            while cls is not None:
                if base in cls.fields:
                    bare = self._strip_type(cls.fields[base])
                    return self.class_info(bare, prefer_file=fn.file)
                # Methods of a nested class see the outer class's fields
                # only through an explicit pointer; don't walk outward.
                break
        return None

    def resolve_lock_expr(self, fn: FunctionInfo, expr: str,
                          offset_in_body: int) -> str | None:
        """Canonical name for a MutexLock argument, or None."""
        expr = expr.strip()
        chain = re.split(r"\.|->", expr)
        chain = [re.sub(r"\[[^\]]*\]", "", part).strip() for part in chain]
        if len(chain) == 1:
            name = chain[0]
            if fn.class_name:
                cls = self.class_info(fn.class_name, prefer_file=fn.file)
                if cls and name in cls.mutex_fields:
                    return self.canonical_lock(cls, name)
            return None
        base, rest = chain[0], chain[1:]
        cls = self.resolve_base_type(fn, base, offset_in_body)
        for part in rest[:-1]:
            if cls is None:
                break
            nxt = cls.fields.get(part)
            cls = self.class_info(self._strip_type(nxt),
                                  prefer_file=fn.file) if nxt else None
        mutex = rest[-1]
        if cls is not None and mutex in cls.mutex_fields:
            return self.canonical_lock(cls, mutex)
        # Fallback: unique mutex field name within this translation unit.
        mates = self._tu_mates(fn.file)
        candidates = [info for infos in self.classes.values()
                      for info in infos
                      if info.file in mates and mutex in info.mutex_fields]
        if len(candidates) == 1:
            return self.canonical_lock(candidates[0], mutex)
        return None

    def resolve_call(self, fn: FunctionInfo, receiver: str,
                     name: str, offset_in_body: int) -> str | None:
        """Qualified name of the callee, or None when unresolvable."""
        receiver = receiver.strip()
        if not receiver:
            if fn.class_name:
                qual_prefix = None
                cls = self.class_info(fn.class_name, prefer_file=fn.file)
                if cls:
                    qual_prefix = cls.qualname
                for candidate in (f"{qual_prefix}::{name}" if qual_prefix
                                  else None,
                                  f"{fn.class_name}::{name}"):
                    if candidate and candidate in self.functions:
                        return candidate
            free = self.free_by_file.get(fn.file, {})
            return free.get(name)
        chain = re.split(r"\.|->", receiver.rstrip(".->"))
        chain = [re.sub(r"\[[^\]]*\]", "", part).strip() for part in chain]
        chain = [part for part in chain if part]
        if not chain:
            return None
        cls = self.resolve_base_type(fn, chain[0], offset_in_body)
        for part in chain[1:]:
            if cls is None:
                return None
            nxt = cls.fields.get(part)
            cls = self.class_info(self._strip_type(nxt),
                                  prefer_file=fn.file) if nxt else None
        if cls is None:
            return None
        for candidate in (f"{cls.qualname}::{name}", f"{cls.name}::{name}"):
            if candidate in self.functions:
                return candidate
        return None

    # -- event extraction --------------------------------------------------

    def _extract_events(self, fn: FunctionInfo) -> list[LockEvent]:
        code = self.file_code[fn.file]
        start, end = fn.body_span
        body = code[start:end]
        ops: list[tuple[int, LockEvent]] = []

        for m in _LOCK_DECL.finditer(body):
            var, expr = m.group(1), m.group(2)
            lock = self.resolve_lock_expr(fn, expr, m.start())
            line = code.count("\n", 0, start + m.start()) + 1
            kind = "acquire" if lock else "unresolved_lock"
            ops.append((m.start(), LockEvent(
                kind=kind, line=line, lock=lock, var=var, offset=m.start(),
                block_end=self._block_end(body, m.end()),
                raw=m.group(0).strip())))
            fn.direct_locks.add(lock) if lock else None

        lock_vars = {e.var for _, e in ops if e.kind == "acquire"}
        var_to_lock = {e.var: e.lock for _, e in ops if e.kind == "acquire"}
        for m in _CALL.finditer(body):
            receiver, name = m.group(1), m.group(2)
            if name in KEYWORDS or name == "MutexLock":
                continue
            line = code.count("\n", 0, start + m.start()) + 1
            offset = m.start()
            base = receiver.rstrip().rstrip(".->").strip()
            base_id = re.split(r"\.|->", base)[0].strip() if base else ""
            base_id = re.sub(r"\[[^\]]*\]", "", base_id)
            if name in ("unlock", "lock") and base_id in lock_vars:
                ops.append((m.start(), LockEvent(
                    kind="relock" if name == "lock" else "unlock",
                    line=line, var=base_id, offset=offset)))
                continue
            if name in CV_WAIT_NAMES:
                args = self._first_arg(body, m.end() - 1)
                # The CondVar wrapper takes the MutexLock guard, not the
                # mutex — map the guard variable back to its lock first.
                cv_mutex = var_to_lock.get(args)
                if cv_mutex is None and args:
                    cv_mutex = self.resolve_lock_expr(fn, args, m.start())
                ops.append((m.start(), LockEvent(
                    kind="cv_wait", line=line, offset=offset, callee=name,
                    cv_mutex=cv_mutex, raw=self._site(body, m.start()))))
                fn.direct_blocking = True
                continue
            resolved = self.resolve_call(fn, receiver, name, m.start())
            if resolved:
                fn.calls.append(resolved)
                ops.append((m.start(), LockEvent(
                    kind="call", line=line, offset=offset, callee=resolved,
                    raw=self._site(body, m.start()))))
            elif name in BLOCKING_NAMES:
                ops.append((m.start(), LockEvent(
                    kind="blocking", line=line, offset=offset, callee=name,
                    raw=self._site(body, m.start()))))
                fn.direct_blocking = True
        ops.sort(key=lambda p: p[0])
        return [e for _, e in ops]

    @staticmethod
    def _first_arg(body: str, open_paren: int) -> str:
        depth, j = 0, open_paren
        start = open_paren + 1
        while j < len(body):
            c = body[j]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    return body[start:j].split(",")[0].strip()
            j += 1
        return ""

    @staticmethod
    def _block_end(body: str, offset: int) -> int:
        """Offset of the '}' closing the block that contains `offset`, or
        len(body) when that block is the function body itself."""
        depth = 0
        for j in range(offset, len(body)):
            if body[j] == "{":
                depth += 1
            elif body[j] == "}":
                if depth == 0:
                    return j
                depth -= 1
        return len(body)

    @staticmethod
    def _site(body: str, offset: int) -> str:
        line_start = body.rfind("\n", 0, offset) + 1
        line_end = body.find("\n", offset)
        if line_end < 0:
            line_end = len(body)
        return body[line_start:line_end].strip()

    # -- summaries ---------------------------------------------------------

    def _fixpoint(self) -> None:
        for fn in self.functions.values():
            fn.may_acquire = set(fn.direct_locks)
            fn.may_block = fn.direct_blocking
        changed = True
        while changed:
            changed = False
            for fn in self.functions.values():
                for callee in fn.calls:
                    target = self.functions.get(callee)
                    if target is None:
                        continue
                    if not target.may_acquire <= fn.may_acquire:
                        fn.may_acquire |= target.may_acquire
                        changed = True
                    if target.may_block and not fn.may_block:
                        fn.may_block = True
                        changed = True

    # -- held-set walking (shared by lock-order and blocking passes) -------

    def walk_held(self, fn: FunctionInfo):
        """Yields (event, held) pairs in source order, where `held` is the
        list of canonical locks actively held at that event (temporary
        unlock()/lock() windows excluded)."""
        active: list[dict] = []   # {lock, var, block_end, engaged}
        for ev in self.events.get(fn.qualname, []):
            # A scoped lock is released by the '}' that closes its block,
            # whatever block the next event sits in.
            active = [a for a in active if ev.offset < a["block_end"]]
            held = [a["lock"] for a in active if a["engaged"]]
            yield ev, held
            if ev.kind == "acquire":
                active.append({"lock": ev.lock, "var": ev.var,
                               "block_end": ev.block_end, "engaged": True})
            elif ev.kind == "unlock":
                for a in active:
                    if a["var"] == ev.var:
                        a["engaged"] = False
            elif ev.kind == "relock":
                for a in active:
                    if a["var"] == ev.var:
                        a["engaged"] = True

    # -- convenience -------------------------------------------------------

    def all_locks(self) -> dict[str, tuple[str, int]]:
        """Every registered mutex: canonical name -> (file, line)."""
        out = {}
        for infos in self.classes.values():
            for info in infos:
                for mu in info.mutex_fields:
                    out[self.canonical_lock(info, mu)] = (
                        info.file, info.mutex_lines.get(mu, 1))
        return out
