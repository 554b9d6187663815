#!/usr/bin/env python3
"""detlint — determinism & protocol-hygiene static analysis for this repo.

Everything the repo claims (bit-identical `chtread_fuzz --repro`, the
metrics-determinism golden test, the delta/epsilon/GST-parameterized
guarantees) rests on the simulator being deterministic. detlint statically
rejects the ways a contributor could break that:

  D1  wall-clock      No OS/ambient time sources (std::chrono::*_clock,
                      time(), gettimeofday, clock_gettime, ...) outside the
                      allowlisted src/common/time.h. Simulated time comes
                      from sim::Clock only.
  D2  randomness      No ambient randomness (rand, srand, std::random_device,
                      std::mt19937, default_random_engine, /dev/urandom)
                      outside src/common/rng.h. All randomness flows through
                      explicitly seeded cht::Rng streams.
  D3  hash-order      No unordered_map/unordered_set declarations or
                      iteration in protocol directories (src/core, src/raft,
                      src/vr, src/leader, src/baselines, src/sim,
                      src/checker, src/chaos) unless the site carries a
                      `// detlint: order-independent (<reason>)`
                      justification. Hash iteration order is
                      implementation-defined; protocol decisions derived
                      from it are invisible nondeterminism.
  D4  pointer-order   No ordered containers keyed on raw pointers
                      (std::map<T*, ...>, std::set<T*>, pointer-keyed
                      priority_queue). Pointer order is allocation order —
                      nondeterministic across runs.
  D5  uninit-fields   Every scalar field of message/event/config structs in
                      the wire-format files (D5_FILES: every protocol's
                      message header, src/sim/message.h, src/core/config.h
                      and src/chaos/spec.h) must carry a member initializer.
                      An uninitialized field in a message struct is
                      frame-garbage nondeterminism.
  D6  threading       No std::thread/atomics/mutexes outside the parallel
                      seed sweeper (src/chaos/sweep.cc) and bench/. The
                      simulator itself is single-threaded by construction.
  D7  file-io         No direct file I/O (std::fstream family, fopen/freopen,
                      POSIX open/openat/creat, <fstream>/<cstdio> includes)
                      in protocol directories. Durable state must go through
                      the simulated sim::StableStorage so crash/loss/tearing
                      semantics apply; a real file would silently survive
                      simulated power cycles. src/chaos/sweep.cc (repro
                      artifact reader/writer) is the allowlisted exception.

v2 adds a cross-file pass: before linting, detlint *extracts a protocol
model* from the tree — the StableStorage keys written vs. read on recovery
paths, timer/deadline expressions and the config symbols they derive from,
the metric names actually registered vs. those documented in
docs/OBSERVABILITY.md, and every suppression annotation with whether it
still suppresses anything. The model is dumped as a versioned JSON artifact
(`--model=PATH`, drift-checked by `--check-model=PATH`; its sites name
files, not lines, so an edit that only shifts lines never drifts it, while
findings keep their file:line) and enforced by four
rule families (message dispatch needs no rule: each receiver's sim::Inbox
fails to compile when a listed message type has no handler):

  D8  persistence     Every StableStorage key a protocol directory writes
                      must be read back — and read back on a recovery path
                      (a function whose name contains recover/restart).
                      A key read but never written is equally a finding:
                      the recovery path trusts state nobody produces.
  D10 timer-hygiene   Deadline/timer arithmetic must derive from *named*
                      duration symbols (config fields, named constants,
                      named locals). An anonymous Duration::millis(250)
                      buried in an expression is safety-adjacent arithmetic
                      with no name, no unit audit, and no config surface.
  D11 metric-names    Metric registrations must use literal names (no
                      concatenation/to_string — dynamic names defeat the
                      pre-registration discipline and explode cardinality),
                      and every emitted name must appear in the metric-name
                      registry in docs/OBSERVABILITY.md.
  D12 suppressions    A `detlint: allow(...)`/`order-independent` annotation
                      that no longer suppresses a real finding — or that is
                      malformed (missing its mandatory reason) — is itself a
                      finding, so justification debt ratchets down, never up.
                      D12 cannot be suppressed.

Cross-file rules (D8 and the D11 documented-set check) need the whole
tree to reason about, so they run only on full scans (no explicit [files...]
arguments).

Suppression grammar (see docs/STATIC_ANALYSIS.md):
    // detlint: allow(D<k>) <reason>
    // detlint: order-independent (<reason>)     [sugar for allow(D3)]
A suppression applies to its own line, or — when it is the only thing on the
line — to the next line. The reason is mandatory.

The scanner is a pure-Python lexer + pattern pass, so it runs anywhere
Python runs.

Usage:
    detlint.py [--root DIR] [--json[=PATH]] [--sarif=PATH] [--model=PATH]
               [--check-model=PATH] [--selftest] [--list-rules] [files...]

Exit status: 0 = clean, 1 = findings, 2 = usage/internal error.
"""

import argparse
import json
import os
import re
import sys

VERSION = 2
MODEL_VERSION = 3

# Directories scanned relative to the repo root (files... overrides).
SCAN_ROOTS = ("src", "tools", "bench", "examples")
# detlint's own tree (including fixtures, which are violations on purpose).
EXCLUDE_PREFIXES = ("tools/detlint",)
CPP_SUFFIXES = (".h", ".cc", ".cpp", ".hpp")

# Protocol directories where hash-iteration order can reach protocol
# decisions, verdicts, or the event schedule (rule D3).
PROTOCOL_DIRS = (
    "src/core", "src/raft", "src/vr", "src/leader", "src/baselines",
    "src/sim", "src/checker", "src/chaos", "src/client",
)

# Protocol stacks the model extraction groups by: each directory is one
# analysis unit for persistence completeness (D8). (src/baselines holds two
# mechanism-only protocols; their key namespaces are disjoint, so directory
# granularity stays sound.)
STACK_DIRS = (
    "src/core", "src/raft", "src/vr", "src/client", "src/leader",
    "src/baselines",
)

# Wire-format / spec files whose structs rule D5 audits.
D5_FILES = (
    "src/core/messages.h", "src/sim/message.h", "src/raft/raft.h",
    "src/vr/vr.h", "src/core/config.h", "src/chaos/spec.h",
    "src/client/wire.h", "src/baselines/pql_lease.h",
    "src/baselines/megastore_chubby.h", "src/leader/omega.h",
    "src/leader/enhanced_leader.h",
)

# The documented metric-name registry rule D11 checks emitted names against.
OBSERVABILITY_DOC = "docs/OBSERVABILITY.md"

ALLOWLIST = {
    "D1": ("src/common/time.h",),
    "D2": ("src/common/rng.h",),
    "D3": (),
    "D4": (),
    "D5": (),
    "D6": ("src/chaos/sweep.cc", "bench/"),
    "D7": ("src/chaos/sweep.cc",),
    "D8": (),
    # config.h IS the place duration defaults get their names.
    "D10": ("src/core/config.h",),
    # The registry implementation manipulates names generically.
    "D11": ("src/metrics/",),
    "D12": (),
}

RULES = {
    "D1": "wall-clock or OS time source outside src/common/time.h",
    "D2": "ambient randomness outside src/common/rng.h",
    "D3": "unordered container in a protocol directory without an "
          "order-independence justification",
    "D4": "ordered container keyed on a raw pointer (allocation-order "
          "nondeterminism)",
    "D5": "scalar field of a wire-format struct without a member initializer",
    "D6": "std::thread/atomic/mutex outside src/chaos/sweep.cc and bench/",
    "D7": "direct file I/O in a protocol directory (bypasses the simulated "
          "stable storage)",
    "D8": "stable-storage persistence incompleteness (key written but never "
          "recovered, or recovered but never written)",
    "D10": "anonymous duration literal in protocol code (deadlines must "
           "derive from named config symbols)",
    "D11": "metric name dynamically constructed, or emitted but absent from "
           "the docs/OBSERVABILITY.md registry",
    "D12": "stale or malformed detlint suppression (justification debt must "
           "ratchet down)",
}

SUGGESTIONS = {
    "D1": "route through sim::Clock / cht::LocalTime (src/common/time.h); "
          "simulated components must never read the host clock",
    "D2": "take an explicitly seeded cht::Rng (src/common/rng.h), or derive "
          "a stream with Rng::split() / chaos::derive_seed()",
    "D3": "use std::map/std::set, iterate a sorted copy, or append "
          "'// detlint: order-independent (<why order cannot matter>)'",
    "D4": "key on a stable id (ProcessId, OperationId, sequence number) "
          "instead of the object's address",
    "D5": "add a member initializer ('= 0', '= false', '{}') so a "
          "default-constructed message has no indeterminate bits",
    "D6": "keep simulated code single-threaded; parallelism belongs in the "
          "seed sweeper (src/chaos/sweep.cc) or bench/ harnesses",
    "D7": "persist through sim::StableStorage (src/sim/storage.h) so writes "
          "participate in simulated crash/loss semantics; host files are "
          "invisible to the power-cycle nemesis",
    "D8": "read the key back in the stack's recover()/on_restart() path (or "
          "delete the write if the state is genuinely volatile); a write "
          "recovery never consults is durability theater",
    "D10": "bind the literal to a named symbol first (a Config field, a "
           "constexpr Duration kFoo, or a named local) so deadline "
           "arithmetic reads as named quantities",
    "D11": "register metrics with literal names (pre-registered handles, "
           "bounded cardinality) and list each name in the metric-name "
           "registry table in docs/OBSERVABILITY.md",
    "D12": "delete the annotation (the finding it justified is gone) or fix "
           "its grammar: a reason is mandatory, and D12 itself cannot be "
           "suppressed",
}


class Finding:
    def __init__(self, rule, path, line, snippet, message=None):
        self.rule = rule
        self.path = path
        self.line = line
        self.snippet = snippet.strip()
        self.message = message or RULES[rule]
        self.suggestion = SUGGESTIONS[rule]

    def key(self):
        return (self.path, self.line, self.rule)

    def to_json(self):
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "snippet": self.snippet,
            "message": self.message,
            "suggestion": self.suggestion,
        }


# --- Lexing -------------------------------------------------------------------

def strip_lines(text):
    """Split a C++ source into per-line (code, comment, craw) triples.

    `code` has string/char literals blanked (their quotes kept) and comments
    removed — rule patterns match against it so literal/comment text cannot
    spoof a rule. `craw` keeps literal content but removes comments — call
    arguments (storage keys, metric names) are parsed from it, since
    positions in `code` shift once literals are blanked. Handles multi-line
    /* */ comments; raw strings are not used in this codebase and are
    treated as ordinary literals.
    """
    out = []
    in_block = False
    for raw in text.splitlines():
        code = []
        craw = []
        comment = []
        i, n = 0, len(raw)
        while i < n:
            c = raw[i]
            if in_block:
                end = raw.find("*/", i)
                if end < 0:
                    comment.append(raw[i:])
                    i = n
                else:
                    comment.append(raw[i:end])
                    i = end + 2
                    in_block = False
                continue
            if c == "/" and i + 1 < n and raw[i + 1] == "/":
                comment.append(raw[i + 2:])
                i = n
                continue
            if c == "/" and i + 1 < n and raw[i + 1] == "*":
                in_block = True
                i += 2
                continue
            if c in "\"'":
                quote = c
                code.append(quote)
                start = i
                i += 1
                while i < n:
                    if raw[i] == "\\":
                        i += 2
                        continue
                    if raw[i] == quote:
                        code.append(quote)
                        i += 1
                        break
                    i += 1
                craw.append(raw[start:i])
                continue
            code.append(c)
            craw.append(c)
            i += 1
        out.append(("".join(code), " ".join(comment).strip(),
                    "".join(craw)))
    return out


RULE_ID = r"D(?:1[0-2]|[1-9])"
SUPPRESS_RE = re.compile(
    r"detlint:\s*(?:allow\((" + RULE_ID + r")\)\s*(\S.*)?"
    r"|order-independent\s*(\(.+\))?)")
# Broad matcher for collecting *all* annotation sites (valid or not) so D12
# can audit them; `allow(...)` with any argument, and bare order-independent.
SUPPRESS_SITE_RE = re.compile(
    r"detlint:\s*(?:allow\((\w+)\)\s*(\S.*)?"
    r"|(order-independent)\s*(\(.+\))?)")


def suppressions(comment):
    """Rules suppressed by this comment; None-reason suppressions are invalid
    (the justification grammar requires a reason) and are ignored. D12 is
    never suppressible — a stale-suppression finding cannot itself be
    justified away."""
    rules = set()
    for m in SUPPRESS_RE.finditer(comment):
        if m.group(1):                       # allow(Dk) reason
            if m.group(2) and m.group(1) != "D12":
                rules.add(m.group(1))
        elif m.group(3):                     # order-independent (reason)
            rules.add("D3")
    return rules


def suppression_sites(comment):
    """All annotation sites in this comment as (rule, valid) pairs. `rule` is
    the annotated rule id ('D3' for order-independent sugar); `valid` is
    False when the mandatory reason is missing, the rule id is unknown, or
    the annotation targets D12."""
    sites = []
    for m in SUPPRESS_SITE_RE.finditer(comment):
        if m.group(1):
            rule = m.group(1)
            valid = (bool(m.group(2)) and rule in RULES and rule != "D12")
            sites.append((rule if rule in RULES else "D?", valid))
        elif m.group(3):
            sites.append(("D3", bool(m.group(4))))
    return sites


# --- Regex engine (per-line rules) -------------------------------------------

D1_PATTERNS = [
    re.compile(r"std::chrono::\w*_clock\b"),
    re.compile(r"\bchrono::\w*_clock\b"),
    re.compile(r"\bgettimeofday\s*\("),
    re.compile(r"\bclock_gettime\s*\("),
    re.compile(r"(?<![\w:.>])clock\s*\(\s*\)"),
    re.compile(r"(?<![\w:.>])time\s*\(\s*(?:NULL|nullptr|0|&\w+|\))"),
    re.compile(r"\b(?:localtime|gmtime|mktime)\s*\("),
]

D2_PATTERNS = [
    re.compile(r"\bstd::random_device\b"),
    re.compile(r"\bstd::mt19937(?:_64)?\b"),
    re.compile(r"\bstd::default_random_engine\b"),
    re.compile(r"\bstd::minstd_rand0?\b"),
    re.compile(r"\bstd::ranlux\w+\b"),
    re.compile(r"(?<![\w:.])s?rand\s*\("),
    re.compile(r"\barc4random\w*\s*\("),
    re.compile(r"\bgetentropy\s*\("),
]
D2_RAW_PATTERNS = [re.compile(r"/dev/u?random")]

D4_PATTERNS = [
    re.compile(r"std::(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+\s*\*"),
    re.compile(r"std::priority_queue\s*<\s*(?:const\s+)?[\w:]+\s*\*"),
]

# D7 — direct file I/O in protocol directories (rule scope applied at the
# scan site: only PROTOCOL_DIRS files are checked). The bare open/openat/
# creat pattern deliberately excludes member calls (`file.open(...)`,
# `is_open()`) and qualified names via the lookbehind.
D7_PATTERNS = [
    re.compile(r"\bstd::(?:basic_)?[io]?fstream\b"),
    re.compile(r"\bf(?:re)?open\s*\("),
    re.compile(r"(?<![\w:.>])(?:open|openat|creat)\s*\("),
    re.compile(r"#\s*include\s*<(?:fstream|cstdio|stdio\.h|fcntl\.h)>"),
]

D6_PATTERNS = [
    re.compile(r"\bstd::(?:jthread|thread)\b"),
    re.compile(r"\bstd::atomic\b|\bstd::atomic_\w+\b"),
    re.compile(r"\bstd::(?:shared_|recursive_)?mutex\b"),
    re.compile(r"\bstd::condition_variable\b"),
    re.compile(r"\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"),
    re.compile(r"\bstd::(?:async|future|promise|packaged_task)\b"),
    re.compile(r"#\s*include\s*<(?:thread|atomic|mutex|condition_variable|"
               r"future|shared_mutex|semaphore|barrier|latch)>"),
]

UNORDERED_DECL_RE = re.compile(
    r"(?:std::)?unordered_(?:map|set|multimap|multiset)\s*<")
# `... > name ;|=|{` — the declared variable at the end of an unordered decl.
UNORDERED_NAME_RE = re.compile(r">\s*(\w+)\s*(?:;|=|\{)")
UNORDERED_ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*(?:std::)?unordered_(?:map|set)")

# D5 scalar field types that have indeterminate values unless initialized.
D5_SCALAR = (
    r"(?:std::)?u?int(?:8|16|32|64|ptr)?_t|(?:std::)?size_t|"
    r"(?:unsigned\s+)?(?:long\s+long|long|int|short|char)|unsigned|"
    r"bool|float|double|BatchNumber"
)
D5_FIELD_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?P<type>(?:" + D5_SCALAR + r")(?:\s*\*)?)\s+"
    r"(?P<name>\w+)\s*(?P<init>;|=|\{)")
STRUCT_OPEN_RE = re.compile(r"^\s*(?:struct|class)\s+(\w+)[^;]*\{")

# D10 — an anonymous duration literal inside an expression. A literal is
# fine exactly where it *names* a symbol: a config-struct default, a
# constexpr constant, a named local ("Duration patience = ...").
D10_LITERAL_RE = re.compile(r"Duration::(?:micros|millis|seconds)\s*\(\s*\d")
D10_NAMED_BINDING_RE = re.compile(
    r"(?:^|[({,]\s*|\s)(?:constexpr\s+|static\s+|const\s+|inline\s+)*"
    r"(?:sim::|cht::)?Duration\s+\w+\s*[={]")

# D11 — metric registration sites: a registry-shaped receiver followed by a
# name-taking registration call. Lookups (value(), find_histogram()) are not
# registrations and are ignored.
D11_CALL_RE = re.compile(
    r"(?:\bmetrics_\w*|\bmetrics\(\)|->\s*metrics\(\)|\bout\b|\bregistry\w*"
    r"|\breg\b)\s*(?:\.|->)\s*(counter|histogram|add)\s*\(")
D11_DYNAMIC_MARKERS = re.compile(r"\+|\bto_string\b|\bformat\b|\bappend\s*\(")

STRING_LITERAL_RE = re.compile(r'"([^"\\]*(?:\\.[^"\\]*)*)"')


def rel_in(path, prefixes):
    return any(path == p or path.startswith(p.rstrip("/") + "/")
               for p in prefixes)


def allowlisted(rule, path):
    return rel_in(path, ALLOWLIST[rule])


def stack_of(path):
    """The STACK_DIRS prefix this path belongs to, or None."""
    for d in STACK_DIRS:
        if rel_in(path, (d,)):
            return d
    return None


class FileScan:
    """Everything one file contributes to the scan: per-line findings,
    pre-suppression candidates (for the D12 liveness audit), suppression
    annotation sites, and the per-line active suppression sets (reused when
    cross-file rules anchor findings into this file)."""

    def __init__(self, path, text):
        self.path = path
        self.raw = text.splitlines()
        self.lines = strip_lines(text)
        self.findings = []
        self.candidates = set()   # (line 1-based, rule), post-allowlist
        self.suppress = []        # (line 1-based, rule, valid, standalone)
        # Suppressions: own line, plus carry-over from a pure-comment line.
        self.active = []
        carried = set()
        for lineno, (code, comment, _craw) in enumerate(self.lines):
            own = suppressions(comment)
            standalone = not code.strip()
            for rule, valid in suppression_sites(comment):
                self.suppress.append((lineno + 1, rule, valid, standalone))
            self.active.append(own | carried)
            carried = own if standalone else set()

    def emit(self, rule, lineno0, message=None):
        """Record a finding on 0-based line `lineno0`, honoring the allowlist
        and suppressions. Suppressed findings still count as candidates so
        the suppression registers as live."""
        if allowlisted(rule, self.path):
            return
        self.candidates.add((lineno0 + 1, rule))
        if rule in self.active[lineno0]:
            return
        snippet = self.raw[lineno0] if lineno0 < len(self.raw) else ""
        self.findings.append(Finding(rule, self.path, lineno0 + 1,
                                     snippet, message))


def first_call_arg(scan, lineno0, start_col):
    """Parse the first argument of a call whose opening paren sits at or
    after `start_col` on comment-stripped line `lineno0` (craw — literal
    content intact). Returns (literals, dynamic, text): the string literals
    inside the first argument, whether the argument shows dynamic
    construction, and the argument text. Spans at most three lines."""
    pieces = []
    depth = 0
    started = False
    done = False
    for off in range(3):
        idx = lineno0 + off
        if idx >= len(scan.lines):
            break
        raw = scan.lines[idx][2]
        i = start_col if off == 0 else 0
        while i < len(raw):
            c = raw[i]
            if c == '"':
                j = i + 1
                while j < len(raw):
                    if raw[j] == "\\":
                        j += 2
                        continue
                    if raw[j] == '"':
                        break
                    j += 1
                if started:
                    pieces.append(raw[i:j + 1])
                i = j + 1
                continue
            if c == "(":
                depth += 1
                if depth == 1:
                    started = True
                    i += 1
                    continue
            elif c == ")":
                depth -= 1
                if depth <= 0 and started:
                    done = True
                    break
            elif c == "," and depth == 1:
                done = True
                break
            if started:
                pieces.append(c)
            i += 1
        if done:
            break
    text = "".join(pieces)
    literals = STRING_LITERAL_RE.findall(text)
    blanked = STRING_LITERAL_RE.sub('""', text)
    dynamic = bool(D11_DYNAMIC_MARKERS.search(blanked))
    return literals, dynamic, text.strip()


def paired_calls(regex, code, craw):
    """Matches of `regex` on the craw line, but only for calls that also
    match on the blanked `code` line (so literal content cannot spoof a
    call site), paired by occurrence order — craw positions are what
    first_call_arg needs."""
    code_ms = list(regex.finditer(code))
    if not code_ms:
        return []
    craw_ms = list(regex.finditer(craw))
    return craw_ms[:len(code_ms)]


def scan_file_regex(scan):
    """Run the per-line rules (D1–D7, D10, D11-dynamic) over one file."""
    path = scan.path
    lines = scan.lines

    in_protocol_dir = rel_in(path, PROTOCOL_DIRS)

    # Pass 1: collect unordered-typed names (declarations and aliases).
    unordered_names = set()
    unordered_aliases = set()
    for idx, (code, _, _craw) in enumerate(lines):
        m = UNORDERED_ALIAS_RE.search(code)
        if m:
            unordered_aliases.add(m.group(1))
        if UNORDERED_DECL_RE.search(code):
            m = UNORDERED_NAME_RE.search(code)
            if m:
                unordered_names.add(m.group(1))
        for alias in unordered_aliases:
            m = re.search(r"\b" + re.escape(alias) + r"\s+(\w+)\s*(?:;|=|\{)",
                          code)
            if m:
                unordered_names.add(m.group(1))

    # Pass 2: per-line rules.
    for idx, (code, _, craw) in enumerate(lines):
        for pattern in D1_PATTERNS:
            if pattern.search(code):
                scan.emit("D1", idx)
                break
        hit_d2 = any(p.search(code) for p in D2_PATTERNS) or \
            any(p.search(craw) for p in D2_RAW_PATTERNS)
        if hit_d2:
            scan.emit("D2", idx)
        if in_protocol_dir:
            if UNORDERED_DECL_RE.search(code) or \
                    UNORDERED_ALIAS_RE.search(code):
                scan.emit("D3", idx,
                          "unordered container declared in a protocol "
                          "directory without an order-independence "
                          "justification")
            else:
                for name in unordered_names:
                    esc = re.escape(name)
                    if re.search(r"for\s*\([^;)]*:\s*" + esc + r"\s*\)", code) \
                            or re.search(r"\b" + esc + r"\s*\.\s*c?begin\s*\(",
                                         code):
                        scan.emit("D3", idx,
                                  "iteration over unordered container '%s' "
                                  "(hash order is implementation-defined)"
                                  % name)
                        break
        for pattern in D4_PATTERNS:
            if pattern.search(code):
                scan.emit("D4", idx)
                break
        for pattern in D6_PATTERNS:
            if pattern.search(code):
                scan.emit("D6", idx)
                break
        if in_protocol_dir:
            for pattern in D7_PATTERNS:
                if pattern.search(code):
                    scan.emit("D7", idx)
                    break
            if D10_LITERAL_RE.search(code) and \
                    not D10_NAMED_BINDING_RE.search(code):
                scan.emit("D10", idx,
                          "anonymous duration literal in an expression "
                          "(bind it to a named config symbol or constant)")
        if path.startswith("src/"):
            for m in paired_calls(D11_CALL_RE, code, craw):
                literals, dynamic, text = first_call_arg(
                    scan, idx, m.end() - 1)
                if dynamic or not literals:
                    scan.emit("D11", idx,
                              "dynamically constructed metric name '%s' "
                              "(names must be literals so registration is "
                              "bounded and auditable)" % (text[:60] or "?"))

    # Pass 3: D5 struct-field audit (configured files only).
    if path in D5_FILES:
        depth = 0
        struct_depth = []  # brace depth at which each open struct's body sits
        for idx, (code, _, _craw) in enumerate(lines):
            opens_struct = STRUCT_OPEN_RE.search(code)
            if opens_struct:
                struct_depth.append(depth + 1)
            if struct_depth and depth == struct_depth[-1] and "(" not in code:
                m = D5_FIELD_RE.search(code)
                if m and m.group("init") == ";":
                    scan.emit("D5", idx,
                              "field '%s %s' of a wire-format struct has no "
                              "member initializer" % (m.group("type").strip(),
                                                      m.group("name")))
            depth += code.count("{") - code.count("}")
            while struct_depth and depth < struct_depth[-1]:
                struct_depth.pop()


# --- Protocol-model extraction ------------------------------------------------

CONST_STR_RE = re.compile(
    r"(?:inline\s+|static\s+)*constexpr\s+const\s+char\s*\*\s*"
    r"(k\w+)\s*=\s*")
CONST_STR_VALUE_RE = re.compile(
    r"(?:inline\s+|static\s+)*constexpr\s+const\s+char\s*\*\s*"
    r"(k\w+)\s*=\s*\"([^\"]*)\"")
STORAGE_ALIAS_RE = re.compile(r"StableStorage&\s+(\w+)\s*=")
STORAGE_OPS = ("write", "erase", "read", "append", "truncate_log",
               "keys_with_prefix", "log_size", "log")
RECOVERY_FN_RE = re.compile(r"recover|restart", re.IGNORECASE)
FUNC_DEF_RE = re.compile(
    r"^\s*(?:template\s*<[^>]*>\s*)?(?:[\w:<>,*&~\]\[]+\s+)+"
    r"(?:\w+::)*(~?\w+)\s*\(")
FUNC_KEYWORDS = {"if", "for", "while", "switch", "return", "else", "do",
                 "case", "new", "delete", "sizeof", "throw", "co_return"}
SCHEDULE_RE = re.compile(r"\b(schedule_after|schedule_at_local|schedule_at)"
                         r"\s*\(")
DEADLINE_FN_RE = re.compile(
    r"Duration\s+(?:\w+::)*(\w*(?:deadline|timeout|period|interval)\w*)"
    r"\s*\(\s*\)")
CONFIG_SYMBOL_RE = re.compile(
    r"\b(?:config_|config\(\))\s*\.\s*(\w+)|\bconfig\(\)\.(\w+)")
DOC_METRIC_RE = re.compile(r"`([a-z][a-z0-9_.]*)`")


def site(path, lineno1):
    return "%s:%d" % (path, lineno1)


def current_function_tracker(scan):
    """Yields (lineno0, code, current_function_name) for a file, tracking the
    most recent function-definition-shaped line (a return type and possibly
    qualified name before the parameter list, not a control keyword, not a
    pure declaration)."""
    current = ""
    for idx, (code, _, craw) in enumerate(scan.lines):
        stripped = code.strip()
        first_word = re.match(r"[A-Za-z_~]\w*", stripped)
        if first_word and first_word.group(0) not in FUNC_KEYWORDS:
            m = FUNC_DEF_RE.match(code)
            if m and not stripped.endswith(";"):
                current = m.group(1)
        yield idx, code, craw, current


def parse_key_arg(scan, lineno0, start_col, constants):
    """Classify the key argument of a storage call starting at `start_col`
    (the column of the opening paren) on raw line lineno0. Returns
    (pattern, kind) where kind is 'exact', 'prefix', or 'dynamic'."""
    literals, _, text = first_call_arg(scan, lineno0, start_col)
    if not text:
        return None, "dynamic"
    concat = "+" in STRING_LITERAL_RE.sub('""', text)
    if literals:
        return literals[0], ("prefix" if concat else "exact")
    m = re.match(r"^([A-Za-z_]\w*)", text)
    if m and m.group(1) in constants:
        return constants[m.group(1)], ("prefix" if concat else "exact")
    return None, "dynamic"


def extract_model(scans, root):
    """Builds the cross-file protocol model: per-stack storage-key read/write
    sites and timer expressions, the emitted metric-name registry, and all
    suppression annotations."""
    model = {
        "tool": "detlint",
        "model_version": MODEL_VERSION,
        "stacks": {},
        "metrics": {"emitted": {}, "documented": None},
        "suppressions": [],
    }

    def stack_entry(stack):
        return model["stacks"].setdefault(stack, {
            "storage": {"keys": {}, "log": {"writes": [], "reads": []},
                        "dynamic_reads": []},
            "timers": [],
        })

    # Pass A: string constants per stack (storage keys resolve through them).
    constants_by_file = {}
    for scan in scans.values():
        consts = {}
        for idx, (code, _, craw) in enumerate(scan.lines):
            if CONST_STR_RE.search(code):
                m = CONST_STR_VALUE_RE.search(craw)
                if m:
                    consts[m.group(1)] = (m.group(2), idx + 1)
        constants_by_file[scan.path] = consts

    constants_by_stack = {}
    for scan in scans.values():
        stack = stack_of(scan.path)
        if stack is None:
            continue
        bucket = constants_by_stack.setdefault(stack, {})
        for name, (value, lineno1) in constants_by_file[scan.path].items():
            bucket.setdefault(name, (value, scan.path, lineno1))

    # Pass B: storage calls and timers — per stack file.
    for scan in scans.values():
        stack = stack_of(scan.path)
        if stack is None:
            continue
        entry = stack_entry(stack)
        file_consts = {
            n: v for n, (v, _p, _l) in constants_by_stack[stack].items()}
        aliases = set()
        for code, _, _craw in scan.lines:
            m = STORAGE_ALIAS_RE.search(code)
            if m:
                aliases.add(m.group(1))
        recv = r"(?:storage\s*\(\s*\)"
        for a in sorted(aliases):
            recv += r"|\b" + re.escape(a) + r"\b"
        recv += r")"
        storage_call_re = re.compile(
            recv + r"\s*\.\s*(" + "|".join(STORAGE_OPS) + r")\s*\(")

        for idx, code, craw, fn in current_function_tracker(scan):
            for m in paired_calls(storage_call_re, code, craw):
                op = m.group(1)
                where = site(scan.path, idx + 1)
                recovery = bool(RECOVERY_FN_RE.search(fn))
                if op in ("append", "truncate_log"):
                    entry["storage"]["log"]["writes"].append(
                        {"op": op, "site": where, "function": fn})
                    continue
                if op in ("log", "log_size"):
                    entry["storage"]["log"]["reads"].append(
                        {"op": op, "site": where, "function": fn,
                         "recovery": recovery})
                    continue
                pattern, kind = parse_key_arg(scan, idx, m.end() - 1,
                                              file_consts)
                if kind == "dynamic":
                    if op in ("read", "keys_with_prefix"):
                        entry["storage"]["dynamic_reads"].append(
                            {"op": op, "site": where, "function": fn})
                    continue
                if op == "keys_with_prefix":
                    kind = "prefix"
                rec = entry["storage"]["keys"].setdefault(
                    pattern, {"kind": kind, "writes": [], "reads": [],
                              "recovery_reads": []})
                if kind == "prefix":
                    rec["kind"] = "prefix"
                if op in ("write",):
                    rec["writes"].append({"site": where, "function": fn})
                elif op in ("erase",):
                    pass  # cleanup of a key; neither produces nor consumes
                else:  # read / keys_with_prefix
                    rec["reads"].append({"site": where, "function": fn})
                    if recovery:
                        rec["recovery_reads"].append(where)

            # Timers: scheduling sites and deadline-function definitions.
            for sched in paired_calls(SCHEDULE_RE, code, craw)[:1]:
                _lits, _dyn, arg = first_call_arg(scan, idx, sched.end() - 1)
                symbols = sorted({g1 or g2 for g1, g2 in
                                  CONFIG_SYMBOL_RE.findall(arg)})
                entry["timers"].append(
                    {"kind": "schedule", "call": sched.group(1),
                     "site": site(scan.path, idx + 1), "function": fn,
                     "expr": arg[:120], "config_symbols": symbols,
                     "has_literal": bool(D10_LITERAL_RE.search(arg))})
            dl = DEADLINE_FN_RE.search(code)
            if dl and not code.strip().endswith(";"):
                entry["timers"].append(
                    {"kind": "deadline_fn", "name": dl.group(1),
                     "site": site(scan.path, idx + 1), "function": fn,
                     "expr": "", "config_symbols": [],
                     "has_literal": False})

    # Pass C: metric registrations (literal names only; dynamic ones were
    # already flagged per-line) across src/.
    for scan in scans.values():
        if not scan.path.startswith("src/") or \
                rel_in(scan.path, ALLOWLIST["D11"]):
            continue
        for idx, (code, _, craw) in enumerate(scan.lines):
            for m in paired_calls(D11_CALL_RE, code, craw):
                literals, dynamic, _text = first_call_arg(scan, idx,
                                                          m.end() - 1)
                if dynamic or not literals:
                    continue
                for name in literals:
                    model["metrics"]["emitted"].setdefault(name, []).append(
                        {"site": site(scan.path, idx + 1),
                         "kind": m.group(1)})

    # Pass D: the documented metric-name registry.
    doc_path = os.path.join(root, OBSERVABILITY_DOC)
    if os.path.isfile(doc_path):
        with open(doc_path, "r", encoding="utf-8", errors="replace") as f:
            doc = f.read()
        model["metrics"]["documented"] = sorted(set(
            DOC_METRIC_RE.findall(doc)))

    # Pass E: suppression inventory (liveness filled in by the caller).
    for scan in sorted(scans.values(), key=lambda s: s.path):
        for lineno1, rule, valid, standalone in scan.suppress:
            model["suppressions"].append(
                {"site": site(scan.path, lineno1), "rule": rule,
                 "valid": valid, "standalone": standalone, "live": None})
    return model


def cross_file_findings(scans, model):
    """Evaluates the model rule D8 and the D11 documented-set check,
    emitting findings through each file's FileScan (so allowlists and
    suppressions apply, and suppressed cross-file findings still register
    as candidates for the D12 liveness audit)."""

    def emit_at(where, rule, message):
        path, lineno1 = where.rsplit(":", 1)
        scan = scans.get(path)
        if scan is None:
            return
        scan.emit(rule, int(lineno1) - 1, message)

    for stack, entry in sorted(model["stacks"].items()):
        # --- D8: persistence completeness -------------------------------
        keys = entry["storage"]["keys"]
        for pattern, rec in sorted(keys.items()):
            reads = list(rec["reads"])
            recovery_reads = list(rec["recovery_reads"])
            # A prefix write is satisfied by a prefix read of a compatible
            # prefix; an exact write by an exact read of the same key or a
            # covering prefix read.
            for other_pat, other in keys.items():
                if other_pat == pattern:
                    continue
                if other["kind"] == "prefix" and \
                        pattern.startswith(other_pat):
                    reads += other["reads"]
                    recovery_reads += other["recovery_reads"]
            if rec["writes"] and not reads:
                emit_at(rec["writes"][0]["site"], "D8",
                        "storage key '%s' is written but never read back "
                        "in %s — recovery silently ignores it" %
                        (pattern, stack))
            elif rec["writes"] and not recovery_reads:
                emit_at(rec["writes"][0]["site"], "D8",
                        "storage key '%s' is written but never read on a "
                        "recovery path (recover*/on_restart) in %s" %
                        (pattern, stack))
            elif reads and not rec["writes"]:
                emit_at(reads[0]["site"], "D8",
                        "storage key '%s' is read but never written in %s — "
                        "recovery consumes state nobody produces" %
                        (pattern, stack))
        log = entry["storage"]["log"]
        if log["writes"] and not log["reads"]:
            emit_at(log["writes"][0]["site"], "D8",
                    "append log is written but never replayed in %s" % stack)
        elif log["reads"] and not log["writes"]:
            emit_at(log["reads"][0]["site"], "D8",
                    "append log is replayed but never written in %s" % stack)

    # --- D11: emitted ⊆ documented ------------------------------------
    documented = model["metrics"]["documented"]
    if documented is not None:
        doc_set = set(documented)
        for name, sites in sorted(model["metrics"]["emitted"].items()):
            if name not in doc_set:
                emit_at(sites[0]["site"], "D11",
                        "metric '%s' is emitted but not listed in the "
                        "metric-name registry (%s)"
                        % (name, OBSERVABILITY_DOC))


def audit_suppressions(scans, model):
    """Rule D12: every annotation must be valid and still suppress at least
    one candidate finding of its rule (on its own line, or the next line for
    standalone-comment annotations)."""
    for entry in model["suppressions"]:
        path, lineno1 = entry["site"].rsplit(":", 1)
        lineno1 = int(lineno1)
        scan = scans.get(path)
        if scan is None:
            continue
        covered = {lineno1}
        if entry["standalone"]:
            covered.add(lineno1 + 1)
        live = any((line, entry["rule"]) in scan.candidates
                   for line in covered)
        entry["live"] = live
        if not entry["valid"]:
            scan.emit("D12", lineno1 - 1,
                      "malformed detlint annotation (reason is mandatory; "
                      "rule id must be D1–D11)")
        elif not live:
            scan.emit("D12", lineno1 - 1,
                      "stale suppression: allow(%s) no longer matches any "
                      "finding here" % entry["rule"])


def canonical_model(model):
    """The pinned view of the model (--model / --check-model): every site
    loses its `:line` suffix, so only a change to the protocol surface —
    not a line shift — drifts the committed artifact."""
    def pinned(node, key=None):
        if key == "site":
            return node.rsplit(":", 1)[0]
        if key == "recovery_reads":
            return [where.rsplit(":", 1)[0] for where in node]
        if isinstance(node, dict):
            return {k: pinned(v, k) for k, v in node.items()}
        if isinstance(node, list):
            return [pinned(v) for v in node]
        return node
    return json.dumps(pinned(model), indent=2, sort_keys=True) + "\n"


# --- Driver -------------------------------------------------------------------

def collect_files(root, explicit):
    if explicit:
        paths = []
        for p in explicit:
            rel = os.path.relpath(os.path.abspath(p), root)
            paths.append(rel.replace(os.sep, "/"))
        return sorted(paths)
    paths = []
    for scan_root in SCAN_ROOTS:
        base = os.path.join(root, scan_root)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(CPP_SUFFIXES):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                rel = rel.replace(os.sep, "/")
                if rel_in(rel, EXCLUDE_PREFIXES):
                    continue
                paths.append(rel)
    return paths


def run_scan(root, files, full_scan=True):
    """Returns (findings, model). `full_scan` enables the cross-file model
    rules (D8/D11-doc/D12); partial scans (explicit file arguments) run the
    per-line rules only, since "never read" cannot be decided from a subset
    of the tree."""
    scans = {}
    for path in files:
        full = os.path.join(root, path)
        try:
            with open(full, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            sys.stderr.write("detlint: cannot read %s: %s\n" % (path, e))
            continue
        scan = FileScan(path, text)
        scan_file_regex(scan)
        scans[path] = scan

    model = None
    if full_scan:
        model = extract_model(scans, root)
        cross_file_findings(scans, model)
        audit_suppressions(scans, model)

    findings = []
    for path in sorted(scans):
        findings.extend(scans[path].findings)
    seen = set()
    deduped = []
    for f in sorted(findings, key=Finding.key):
        if f.key() not in seen:
            seen.add(f.key())
            deduped.append(f)
    return deduped, model


def report(findings, json_out, quiet=False):
    doc = {
        "tool": "detlint",
        "version": VERSION,
        "counts": {},
        "findings": [f.to_json() for f in findings],
    }
    for f in findings:
        doc["counts"][f.rule] = doc["counts"].get(f.rule, 0) + 1
    if json_out is not None:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if json_out == "-":
            sys.stdout.write(text)
        else:
            with open(json_out, "w", encoding="utf-8") as f:
                f.write(text)
    if json_out != "-" and not quiet:
        for f in findings:
            print("%s:%d: [%s] %s" % (f.path, f.line, f.rule, f.message))
            print("    %s" % f.snippet)
            print("    fix: %s" % f.suggestion)
        summary = ", ".join("%s=%d" % (r, n)
                            for r, n in sorted(doc["counts"].items()))
        print("detlint: %d finding(s)%s" %
              (len(findings), (" [" + summary + "]") if summary else ""))


def write_sarif(findings, path):
    """SARIF 2.1.0 export so CI code scanning renders findings as PR
    annotations."""
    rules = []
    for rule in sorted(RULES):
        rules.append({
            "id": rule,
            "shortDescription": {"text": RULES[rule]},
            "help": {"text": SUGGESTIONS[rule]},
            "defaultConfiguration": {"level": "error"},
        })
    results = []
    for f in findings:
        results.append({
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": "%s — fix: %s" % (f.message, f.suggestion)},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.path},
                    "region": {"startLine": f.line},
                },
            }],
        })
    doc = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "detlint",
                "version": str(VERSION),
                "informationUri":
                    "docs/STATIC_ANALYSIS.md",
                "rules": rules,
            }},
            "results": results,
        }],
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# --- Self-test ----------------------------------------------------------------

EXPECT_RE = re.compile(
    r"detlint-expect:\s*((?:" + RULE_ID + r")(?:\s*,\s*(?:" + RULE_ID +
    r"))*)")


def selftest(tool_dir):
    """Scan the fixture corpus and require findings to match the
    `// detlint-expect: Dk` markers exactly — every seeded violation caught,
    no false positives on the negative cases."""
    corpus = os.path.join(tool_dir, "fixtures", "corpus")
    if not os.path.isdir(corpus):
        sys.stderr.write("detlint --selftest: missing fixture corpus at %s\n"
                         % corpus)
        return 2
    files = collect_files(corpus, None)
    expected = set()
    for path in files:
        with open(os.path.join(corpus, path), encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                m = EXPECT_RE.search(line)
                if m:
                    for rule in re.split(r"\s*,\s*", m.group(1)):
                        expected.add((path, lineno, rule))
    findings, _ = run_scan(corpus, files)
    found = {f.key() for f in findings}
    missed = sorted(expected - found)
    surprise = sorted(found - expected)
    for path, line, rule in missed:
        print("MISSED  %s:%d expected %s not reported" % (path, line, rule))
    for path, line, rule in surprise:
        print("EXTRA   %s:%d unexpected %s finding" % (path, line, rule))
    rules_seen = {rule for (_, _, rule) in expected}
    missing_rules = sorted(set(RULES) - rules_seen)
    if missing_rules:
        print("CORPUS  no positive fixture for rule(s): %s"
              % ", ".join(missing_rules))
    ok = not missed and not surprise and not missing_rules
    print("detlint selftest: %s (%d expected findings across %d files)"
          % ("PASS" if ok else "FAIL", len(expected), len(files)))
    return 0 if ok else 1


def main(argv):
    parser = argparse.ArgumentParser(prog="detlint", add_help=True)
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this file)")
    parser.add_argument("--json", nargs="?", const="-", default=None,
                        metavar="PATH", help="machine-readable output "
                        "(to stdout with no PATH)")
    parser.add_argument("--sarif", default=None, metavar="PATH",
                        help="write findings as SARIF 2.1.0 for CI "
                        "code-scanning annotations")
    parser.add_argument("--model", default=None, metavar="PATH",
                        help="dump the extracted protocol model as "
                        "versioned JSON ('-' for stdout)")
    parser.add_argument("--check-model", default=None, metavar="PATH",
                        help="diff the freshly extracted protocol model "
                        "against a committed JSON artifact; exit 1 on drift")
    parser.add_argument("--selftest", action="store_true",
                        help="check the rules against the fixture corpus")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("files", nargs="*")
    args = parser.parse_args(argv)

    tool_dir = os.path.dirname(os.path.abspath(__file__))
    if args.list_rules:
        for rule in sorted(RULES, key=lambda r: int(r[1:])):
            print("%s  %s" % (rule, RULES[rule]))
            print("    fix: %s" % SUGGESTIONS[rule])
        return 0
    if args.selftest:
        return selftest(tool_dir)

    root = args.root or os.path.dirname(os.path.dirname(tool_dir))
    root = os.path.abspath(root)
    full_scan = not args.files
    if (args.model or args.check_model) and not full_scan:
        sys.stderr.write("detlint: --model/--check-model require a full "
                         "scan (no explicit file arguments)\n")
        return 2
    files = collect_files(root, args.files or None)
    findings, model = run_scan(root, files, full_scan=full_scan)
    if args.model is not None:
        text = canonical_model(model)
        if args.model == "-":
            sys.stdout.write(text)
        else:
            with open(args.model, "w", encoding="utf-8") as f:
                f.write(text)
    if args.check_model is not None:
        try:
            with open(args.check_model, "r", encoding="utf-8") as f:
                committed = f.read()
        except OSError as e:
            sys.stderr.write("detlint: cannot read committed model: %s\n" % e)
            return 2
        fresh = canonical_model(model)
        if committed != fresh:
            committed_doc = json.loads(committed) if committed.strip() else {}
            fresh_doc = json.loads(fresh)
            drift = []
            for key in ("stacks", "metrics", "suppressions"):
                if committed_doc.get(key) != fresh_doc.get(key):
                    drift.append(key)
            print("detlint model drift: committed artifact is out of date "
                  "(sections changed: %s)" % (", ".join(drift) or "header"))
            print("regenerate with: python3 tools/detlint/detlint.py "
                  "--model=tools/detlint/protocol_model.json")
            return 1
        print("detlint model drift: OK (model matches committed artifact)")
    if args.sarif is not None:
        write_sarif(findings, args.sarif)
    report(findings, args.json, quiet=(args.model == "-"))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
