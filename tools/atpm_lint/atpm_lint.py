#!/usr/bin/env python3
"""atpm-lint: project-invariant linter for the atpm tree.

The correctness story of this codebase rests on a handful of invariants
that no general-purpose tool checks:

  rng-discipline       Every random draw flows through common/rng.h
                       (Rng / SplitSeed streams). std::random_device,
                       rand()/srand(), wall-clock seeding, and raw
                       std::mt19937 construction outside common/rng.h
                       all break bit-identical reproducibility, which is
                       the test oracle for the whole sampling stack.

  determinism-hygiene  Decision and serialization paths (src/core/,
                       src/rris/, src/graph/graph_store.cc) must not
                       iterate over unordered containers (iteration
                       order is hash-seed dependent) and must not key
                       ordered containers on pointers (address order is
                       allocation dependent).

  mmap-safety          Mutation of a memory-mapped Graph must go through
                       ArrayBlock's copy-on-write detach: MutableVec()
                       only on EnsureOwnedStorage() paths inside
                       src/graph/, no ArrayBlock mutation APIs outside
                       src/graph/, and no const_cast in the graph layer
                       (writes through a const_cast'd mapped pointer are
                       SIGSEGV or silent store corruption).

  format-stability     Every struct the graph store reads or writes
                       verbatim (fwrite / reinterpret_cast into the
                       mapping) must be pinned by BOTH
                       static_assert(std::is_trivially_copyable_v<T>)
                       and a static_assert(sizeof(T) == N) so any layout
                       change forces a conscious format-version bump.

  failpoint-discipline Every ATPM_FAILPOINT* site names a string literal
                       registered in src/common/failpoint.cc (between
                       the atpm-failpoint-registry markers) — arming an
                       unregistered name aborts at runtime, so the check
                       must be static. Fault-containment paths
                       (src/core/, src/rris/) must not use bare `throw`:
                       faults cross those layers as Status objects, and
                       an escaping exception tears down worker threads.

  metrics-discipline   Observability names are part of the export
                       surface: metric registrations and TraceSpan names
                       must be string literals, metric names must be
                       `atpm_`-prefixed snake_case, and a checked
                       Register* name may appear only once under src/
                       (a second registration aborts at runtime).
                       Instrumented layers (src/core/, src/rris/) must
                       not read std::chrono::steady_clock directly —
                       timing flows through the obs:: helpers so the
                       disabled path stays one relaxed atomic load.

Engine: a conservative regex pass over comment- and string-stripped
source. The rules are lexical, so no compiler front end is needed.

Suppression: a finding on line N is suppressed by the annotation
`// atpm-lint: allow(<rule>[,<rule>...])` on line N or line N-1.

Exit codes: 0 = clean, 1 = findings, 2 = usage/internal error.
"""

import argparse
import os
import re
import sys

RULE_IDS = (
    "rng-discipline",
    "determinism-hygiene",
    "mmap-safety",
    "format-stability",
    "failpoint-discipline",
    "metrics-discipline",
)

# Directories linted when no explicit paths are given, relative to --root.
DEFAULT_SCAN_DIRS = ("src", "tests", "bench", "tools", "examples")
CXX_SUFFIXES = (".cc", ".h")

# determinism-hygiene applies to decision / serialization paths only.
DETERMINISM_SCOPE_DIRS = ("src/core/", "src/rris/")
DETERMINISM_SCOPE_FILES = ("src/graph/graph_store.cc",)

# format-stability applies to the store serializer.
FORMAT_SCOPE_FILES = ("src/graph/graph_store.cc",)

ALLOW_RE = re.compile(r"//\s*atpm-lint:\s*allow\(([^)]*)\)")


class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def collect_allows(raw_lines):
    """Maps 1-based line -> set of rule ids allowed on that line."""
    allows = {}
    for i, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            allows[i] = rules
    return allows


def allowed(allows, line, rule):
    for probe in (line, line - 1):
        if rule in allows.get(probe, ()):
            return True
    return False


def strip_comments_and_strings(text):
    """Blanks out comments, string and char literals, preserving newlines
    and column positions so line numbers survive."""
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
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def in_determinism_scope(rel):
    return (rel in DETERMINISM_SCOPE_FILES
            or any(rel.startswith(d) for d in DETERMINISM_SCOPE_DIRS))


# --------------------------------------------------------------------- regex
# The rule engine. Operates on comment/string-stripped source so
# documentation never trips a rule.

RNG_PATTERNS = (
    (re.compile(r"\brandom_device\b"),
     "std::random_device is non-deterministic; seed an atpm::Rng instead"),
    (re.compile(r"(?<![\w.:])s?rand\s*\("),
     "rand()/srand() bypass the SplitSeed stream discipline; use atpm::Rng"),
    (re.compile(r"\bmt19937(_64)?\b"),
     "raw std::mt19937 construction outside common/rng.h; draws must flow "
     "through atpm::Rng / SplitSeed streams"),
    (re.compile(r"\btime\s*\(\s*(NULL|nullptr|0)?\s*\)"),
     "wall-clock seeding is non-reproducible; derive seeds via SplitSeed"),
)

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*>\s*&?\s*"
    r"(\w+)\s*[;,=({)]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;()]*?:\s*&?\s*(\w+)\s*\)")
BEGIN_END_RE = re.compile(r"\b(\w+)\s*\.\s*c?(?:begin|end|rbegin|rend)\s*\(")
PTR_KEYED_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:map|set|multimap|multiset)\s*<"
    r"\s*(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*")

MUTABLE_API_RE = re.compile(r"\.\s*(MutableVec|SetView|EnsureOwned)\s*\(")
CONST_CAST_RE = re.compile(r"\bconst_cast\s*<")
ENSURE_OWNED_STORAGE_RE = re.compile(r"\bEnsureOwnedStorage\s*\(")
# How far above a MutableVec() call the EnsureOwnedStorage() detach must
# appear (same-function proximity, regex approximation).
MUTABLE_VEC_WINDOW = 25

STRUCT_DECL_RE = re.compile(r"\bstruct\s+(\w+)\s*(?::[^;{]*)?\{")
REINTERPRET_RE = re.compile(r"reinterpret_cast\s*<\s*(?:const\s+)?(\w+)\s*\*")
SIZEOF_RE = re.compile(r"\bsizeof\s*\(\s*(\w+)\s*\)")
TRIVIAL_ASSERT_RE = re.compile(
    r"static_assert\s*\(\s*(?:std\s*::\s*)?is_trivially_copyable_v\s*<"
    r"\s*(\w+)\s*>")
SIZEOF_ASSERT_RE = re.compile(
    r"static_assert\s*\(\s*sizeof\s*\(\s*(\w+)\s*\)\s*==")


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def regex_rng_discipline(rel, text, findings):
    if rel == "src/common/rng.h":
        return
    for pattern, message in RNG_PATTERNS:
        for m in pattern.finditer(text):
            findings.append(Finding(rel, line_of(text, m.start()),
                                    "rng-discipline", message))


def regex_determinism_hygiene(rel, text, findings):
    if not in_determinism_scope(rel):
        return
    unordered_vars = set(UNORDERED_DECL_RE.findall(text))
    for m in RANGE_FOR_RE.finditer(text):
        if m.group(1) in unordered_vars:
            findings.append(Finding(
                rel, line_of(text, m.start()), "determinism-hygiene",
                "iteration over unordered container '%s' feeds a decision/"
                "serialization path; iterate a sorted copy or an ordered "
                "container" % m.group(1)))
    for m in BEGIN_END_RE.finditer(text):
        if m.group(1) in unordered_vars:
            findings.append(Finding(
                rel, line_of(text, m.start()), "determinism-hygiene",
                "iterator over unordered container '%s' in a decision/"
                "serialization path; iteration order is hash-seed "
                "dependent" % m.group(1)))
    for m in PTR_KEYED_RE.finditer(text):
        findings.append(Finding(
            rel, line_of(text, m.start()), "determinism-hygiene",
            "pointer-keyed ordered container: address order is allocation "
            "dependent; key on a stable id instead"))


def regex_mmap_safety(rel, text, findings):
    in_graph = rel.startswith("src/graph/")
    if in_graph and os.path.basename(rel) == "array_block.h":
        return  # the COW implementation itself
    if not in_graph:
        for m in MUTABLE_API_RE.finditer(text):
            findings.append(Finding(
                rel, line_of(text, m.start()), "mmap-safety",
                "ArrayBlock mutation API %s() outside src/graph/; mapped "
                "storage must be mutated through Graph's copy-on-write "
                "paths" % m.group(1)))
        return
    for m in CONST_CAST_RE.finditer(text):
        findings.append(Finding(
            rel, line_of(text, m.start()), "mmap-safety",
            "const_cast in the graph layer: writing through a cast view of "
            "mapped memory corrupts or faults; detach via "
            "EnsureOwnedStorage() instead"))
    lines = text.split("\n")
    for m in MUTABLE_API_RE.finditer(text):
        if m.group(1) != "MutableVec":
            continue
        line = line_of(text, m.start())
        window = "\n".join(lines[max(0, line - 1 - MUTABLE_VEC_WINDOW):
                                 line])
        if not ENSURE_OWNED_STORAGE_RE.search(window):
            findings.append(Finding(
                rel, line, "mmap-safety",
                "MutableVec() without a preceding EnsureOwnedStorage() "
                "detach (within %d lines): a mapped graph would hand out a "
                "write path into the mapping" % MUTABLE_VEC_WINDOW))


def regex_format_stability(rel, text, findings):
    if rel not in FORMAT_SCOPE_FILES:
        return
    declared = set(STRUCT_DECL_RE.findall(text))
    # On-disk structs: declared here AND read/written verbatim (cast out of
    # the mapping, or sizeof-addressed in the write path).
    referenced = set(REINTERPRET_RE.findall(text)) | set(
        SIZEOF_RE.findall(text))
    on_disk = sorted(declared & referenced)
    trivially = set(TRIVIAL_ASSERT_RE.findall(text))
    size_pinned = set(SIZEOF_ASSERT_RE.findall(text))
    decl_lines = {m.group(1): line_of(text, m.start())
                  for m in STRUCT_DECL_RE.finditer(text)}
    for name in on_disk:
        if name not in trivially:
            findings.append(Finding(
                rel, decl_lines.get(name, 1), "format-stability",
                "on-disk struct %s lacks "
                "static_assert(std::is_trivially_copyable_v<%s>)"
                % (name, name)))
        if name not in size_pinned:
            findings.append(Finding(
                rel, decl_lines.get(name, 1), "format-stability",
                "on-disk struct %s lacks a static_assert(sizeof(%s) == N) "
                "layout pin" % (name, name)))


# failpoint-discipline. The registry lives between marker comments in
# src/common/failpoint.cc; arming an unregistered name aborts at runtime,
# so every macro site must be checkable statically. Name extraction needs
# the RAW text (literals are blanked in the stripped view), but
# strip_comments_and_strings preserves offsets 1:1, so macro sites are
# located in the stripped text (documentation never trips the rule) and
# the name literal is read back out of the raw text at the same position.

FAILPOINT_REGISTRY_FILE = "src/common/failpoint.cc"
FAILPOINT_REGISTRY_BEGIN = "atpm-failpoint-registry-begin"
FAILPOINT_REGISTRY_END = "atpm-failpoint-registry-end"
# The macro definitions and the registry itself.
FAILPOINT_EXEMPT_FILES = ("src/common/failpoint.h", "src/common/failpoint.cc")
FAILPOINT_USE_RE = re.compile(
    r"\bATPM_FAILPOINT(?:_MAYBE_THROW|_FIRED|_TRANSIENT)?\s*\(")
FAILPOINT_NAME_RE = re.compile(r'\s*"([^"\\]*)"')
FAILPOINT_DECL_RE = re.compile(r'\{\s*"([^"\\]+)"')
THROW_RE = re.compile(r"\bthrow\b")
# Fault-containment scope: faults cross these layers as Status objects.
THROW_SCOPE_DIRS = ("src/core/", "src/rris/")

_failpoint_registry_cache = {}


def load_failpoint_registry(root):
    """Registered site names for the tree at `root` (cached per root)."""
    names = _failpoint_registry_cache.get(root)
    if names is not None:
        return names
    names = set()
    try:
        with open(os.path.join(root, *FAILPOINT_REGISTRY_FILE.split("/")),
                  "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError:
        text = ""
    in_table = False
    for line in text.split("\n"):
        if FAILPOINT_REGISTRY_BEGIN in line:
            in_table = True
        elif FAILPOINT_REGISTRY_END in line:
            break
        elif in_table:
            names.update(FAILPOINT_DECL_RE.findall(line))
    _failpoint_registry_cache[root] = names
    return names


def regex_failpoint_discipline(rel, raw, stripped, findings, root):
    if rel in FAILPOINT_EXEMPT_FILES:
        return
    registry = load_failpoint_registry(root)
    for m in FAILPOINT_USE_RE.finditer(stripped):
        line = line_of(stripped, m.start())
        name_m = FAILPOINT_NAME_RE.match(raw, m.end())
        if name_m is None:
            findings.append(Finding(
                rel, line, "failpoint-discipline",
                "failpoint name must be a string literal so the registry "
                "check stays static"))
        elif name_m.group(1) not in registry:
            findings.append(Finding(
                rel, line, "failpoint-discipline",
                "failpoint '%s' is not registered in %s "
                "(atpm-failpoint-registry block); arming an unregistered "
                "name aborts at runtime"
                % (name_m.group(1), FAILPOINT_REGISTRY_FILE)))
    if any(rel.startswith(d) for d in THROW_SCOPE_DIRS):
        for m in THROW_RE.finditer(stripped):
            findings.append(Finding(
                rel, line_of(stripped, m.start()), "failpoint-discipline",
                "bare throw in a fault-containment path; faults must cross "
                "this layer as Status (injected exceptions go through "
                "ATPM_FAILPOINT_MAYBE_THROW inside a try block)"))


# metrics-discipline. Same literal-extraction trick as the failpoint rule:
# call sites are located in the stripped text, the name literal is read
# back out of the raw text at the identical offset.

METRICS_EXEMPT_FILES = (
    "src/common/metrics.h", "src/common/metrics.cc",
    "src/common/trace.h", "src/common/trace.cc",
)
METRICS_REGISTER_RE = re.compile(
    r"\b(Try)?Register(Counter|Gauge|Histogram)\s*\(")
METRIC_NAME_RE = re.compile(r'\s*"([^"\\]*)"')
METRIC_NAME_OK_RE = re.compile(r"atpm_[a-z0-9_]+\Z")
TRACE_SPAN_RE = re.compile(r"\bTraceSpan\s+\w+\s*\(")
STEADY_CLOCK_RE = re.compile(r"\bsteady_clock\b")
# Clock reads stay inside the common/ helpers (ScopedLatency, TraceSpan,
# Timer); the instrumented decision/sampling layers never name the clock.
METRICS_CLOCK_SCOPE_DIRS = ("src/core/", "src/rris/")

# (root, metric name) -> set of (rel, line) checked-registration sites.
# Files are walked in sorted order, so the "first" site is deterministic.
_metric_registration_sites = {}


def regex_metrics_discipline(rel, raw, stripped, findings, root):
    if rel in METRICS_EXEMPT_FILES:
        return
    for m in METRICS_REGISTER_RE.finditer(stripped):
        line = line_of(stripped, m.start())
        name_m = METRIC_NAME_RE.match(raw, m.end())
        if name_m is None:
            findings.append(Finding(
                rel, line, "metrics-discipline",
                "metric name must be a string literal so the export "
                "surface stays statically greppable"))
            continue
        name = name_m.group(1)
        if not METRIC_NAME_OK_RE.fullmatch(name):
            findings.append(Finding(
                rel, line, "metrics-discipline",
                "metric name '%s' must be atpm_-prefixed snake_case "
                "(atpm_[a-z0-9_]+)" % name))
            continue
        if m.group(1) is None and rel.startswith("src/"):
            sites = _metric_registration_sites.setdefault((root, name),
                                                          set())
            if sites and (rel, line) not in sites:
                prior = sorted(sites)[0]
                findings.append(Finding(
                    rel, line, "metrics-discipline",
                    "metric '%s' is already registered at %s:%d; a second "
                    "checked registration aborts at runtime (use a shared "
                    "static accessor)" % (name, prior[0], prior[1])))
            sites.add((rel, line))
    for m in TRACE_SPAN_RE.finditer(stripped):
        line = line_of(stripped, m.start())
        if METRIC_NAME_RE.match(raw, m.end()) is None:
            findings.append(Finding(
                rel, line, "metrics-discipline",
                "TraceSpan name must be a string literal (events store "
                "the pointer, not a copy)"))
    if any(rel.startswith(d) for d in METRICS_CLOCK_SCOPE_DIRS):
        for m in STEADY_CLOCK_RE.finditer(stripped):
            findings.append(Finding(
                rel, line_of(stripped, m.start()), "metrics-discipline",
                "direct steady_clock read in an instrumented layer; time "
                "through obs::ScopedLatency / TraceSpan so the disabled "
                "path stays one relaxed load"))


REGEX_RULES = (
    regex_rng_discipline,
    regex_determinism_hygiene,
    regex_mmap_safety,
    regex_format_stability,
)


def lint_file_regex(rel, raw_text, root):
    findings = []
    stripped = strip_comments_and_strings(raw_text)
    for rule in REGEX_RULES:
        rule(rel, stripped, findings)
    # Run outside REGEX_RULES: these need the raw text for name literals.
    regex_failpoint_discipline(rel, raw_text, stripped, findings, root)
    regex_metrics_discipline(rel, raw_text, stripped, findings, root)
    return findings


# ---------------------------------------------------------------------- main


def iter_files(root, paths):
    if paths:
        for p in paths:
            ap = p if os.path.isabs(p) else os.path.join(root, p)
            if os.path.isdir(ap):
                yield from iter_files(root, [
                    os.path.join(ap, f) for f in sorted(os.listdir(ap))])
            elif ap.endswith(CXX_SUFFIXES):
                yield os.path.realpath(ap)
        return
    for d in DEFAULT_SCAN_DIRS:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            # Fixture trees carry deliberate violations.
            dirnames[:] = [x for x in dirnames if x != "testdata"]
            for f in sorted(filenames):
                if f.endswith(CXX_SUFFIXES):
                    yield os.path.realpath(os.path.join(dirpath, f))


def main(argv):
    parser = argparse.ArgumentParser(
        prog="atpm_lint",
        description="Project-invariant linter (rules: %s)"
        % ", ".join(RULE_IDS))
    parser.add_argument("--root", default=None,
                        help="repo root the rule scopes are relative to "
                        "(default: two levels above this script)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: %s under root)"
                        % "/".join(DEFAULT_SCAN_DIRS))
    opts = parser.parse_args(argv)

    if opts.list_rules:
        for r in RULE_IDS:
            print(r)
        return 0

    root = os.path.realpath(opts.root or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    if not os.path.isdir(root):
        print("atpm_lint: no such root: %s" % root, file=sys.stderr)
        return 2

    findings = []
    checked = 0
    for abs_path in iter_files(root, opts.paths):
        rel = os.path.relpath(abs_path, root).replace(os.sep, "/")
        try:
            with open(abs_path, "r", encoding="utf-8",
                      errors="replace") as fh:
                raw = fh.read()
        except OSError as e:
            print("atpm_lint: cannot read %s: %s" % (rel, e),
                  file=sys.stderr)
            return 2
        checked += 1
        raw_lines = raw.split("\n")
        allows = collect_allows(raw_lines)
        findings.extend(f for f in lint_file_regex(rel, raw, root)
                        if not allowed(allows, f.line, f.rule))

    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    seen = set()
    deduped = []
    for f in findings:
        key = (f.path, f.line, f.rule, f.message)
        if key not in seen:
            seen.add(key)
            deduped.append(f)
    findings = deduped
    for f in findings:
        print(f)
    print("atpm_lint: %d file(s) checked, %d finding(s)"
          % (checked, len(findings)), file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
