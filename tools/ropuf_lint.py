#!/usr/bin/env python3
"""ropuf-lint — repo-specific invariant checker no generic tool knows.

The repo's headline guarantee is bitwise determinism: identical results
across worker counts, SIMD paths, chaos runs and resumes. Most of what
protects that guarantee is convention, not compiler-visible structure.
This linter turns the conventions into mechanically enforced rules:

  banned-symbol        Nondeterminism sources (std::rand, random_device,
                       time(), system_clock, gettimeofday) are banned in
                       src/: every random draw must come from the seeded
                       ropuf::rng streams and every clock read in a
                       deterministic path is a bug. Wall-clock reads that
                       only feed host-bound side-keys live in allowlisted
                       files (obs/ heartbeat + executor backoff).
  unordered-iteration  A function that serializes (uses obs::JsonWriter
                       or calls its key(...), or calls
                       append_json_escaped / to_json / to_jsonl /
                       append_trace_escaped) must not iterate an
                       unordered_map/unordered_set: iteration order is
                       hash-seed dependent, so the bytes it writes would
                       differ across hosts and stdlib versions.
  jsonl-key-registry   Every key the JSONL record serializers emit must be
                       registered: either in the deterministic-prefix
                       contract (DETERMINISTIC_KEYS / SIDE_FIELDS below)
                       or as a host-bound side key in the IGNORED_KEYS
                       tuple of tools/diff_results.py. A new key in
                       neither list silently changes what "bitwise
                       identical" compares — this rule makes that a
                       conscious, reviewed decision. Keys are seen in
                       both spellings: the JsonWriter form key("name")
                       and the hand-built escaped literal \"name\":.
  obs-macro-literal    ROPUF_OBS_COUNT/OBSERVE/SET take a literal metric
                       name: the macros cache the interned id per call
                       site, so a runtime-built name would pin the first
                       value seen and silently misattribute every later
                       update. Dynamic names must go through
                       Registry::counter()/gauge()/histogram().
  layer-dag            #include hygiene for the layer graph under
                       src/ropuf/: each layer may include only its
                       declared dependencies (ALLOWED_DEPS). In
                       particular sim must not include xp, fi depends
                       only on rng, and obs includes no other layer (so
                       never attack). Growing a dependency means editing
                       the map here — consciously.

Engine: uses libclang for function-extent detection when the python
bindings are importable, otherwise a regex + brace-tracking fallback
(the container default). Both engines feed the same rule logic.

Usage:
  ropuf_lint.py [paths...]         lint files/dirs (default: src/ tools/)
  ropuf_lint.py --self-test        run the fixture suite
                                   (tests/lint_fixtures/, one good and one
                                   bad snippet per rule; bad snippets mark
                                   expected findings with `lint-expect:`)
  ropuf_lint.py --list-rules       print the rule table

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import sys
from dataclasses import dataclass

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CPP_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc", ".cxx")

# ---------------------------------------------------------------------------
# Rule configuration
# ---------------------------------------------------------------------------

# Nondeterminism sources. `time(` needs the lookbehind so wall_time(),
# mean_time() and friends don't match; `rand(` likewise for operand().
BANNED_SYMBOLS = [
    (re.compile(r"\bstd::rand\b|(?<![\w:.>])s?rand\s*\("), "std::rand/srand"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bstd::time\s*\(|(?<![\w:.>])time\s*\("), "time()"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday()"),
]

# Files (repo-relative prefixes) allowed to read wall clocks: they feed
# only host-bound output (the obs heartbeat display, retry backoff pacing)
# and never a deterministic record byte. steady_clock is allowed anywhere
# (it feeds the isolated "timing" side-key); entries here cover the
# genuinely wall-clock symbols above if those files ever need them.
BANNED_SYMBOL_ALLOWLIST = (
    "src/ropuf/obs/",          # heartbeat / trace timestamps (host-bound)
    "src/ropuf/xp/executor.cpp",  # retry backoff pacing (never feeds RNG)
)

# The rule only polices library code: benches/tests may time whatever they
# like, and tools/ are host-side scripts.
BANNED_SYMBOL_SCOPE = "src/"

# A serializer either names the writer (a JsonWriter parameter or local,
# or a key(...) call on one) or calls one of the string-building helpers.
SERIALIZER_CALLS = re.compile(
    r"\b(?:append_json_escaped|append_trace_escaped|to_json|to_jsonl)\s*\("
    r"|\bJsonWriter\b|\.key\s*\(")

RANGE_FOR = re.compile(r"\bfor\s*\(([^;{]*?):([^)]*)\)")
UNORDERED_DECL = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;={]*?>\s*&?\s*(\w+)")

OBS_MACRO = re.compile(r"\bROPUF_OBS_(?:COUNT|OBSERVE|SET)\s*\(\s*([^,]*?)\s*,")

INCLUDE_ROPUF = re.compile(r'#include\s+"ropuf/([a-z_0-9]+)/')
LAYER_PATH = re.compile(r"(?:^|/)(?:src/)?ropuf/([a-z_0-9]+)/")

# The layer dependency map: layer -> layers it may #include. This is the
# contract, not a measurement — extending a layer's reach is an edit here
# plus review. Invariants baked in: `xp` appears in no value set except
# `fleet`'s (the experiment layer is a sink for everything below it —
# sim/core/attack can never reach back into it; `fleet` sits *above* xp
# and reuses its JSON/result-store plumbing), `fi` depends only on `rng`
# (fault plans must stay injectable under everything), and `obs` depends
# on nothing (so telemetry can be instrumented into any layer without
# cycles — and never sees `attack`).
# Known knot: rng <-> simd are mutually coupled (the vector kernels step
# xoshiro state; the scalar RNG delegates bulk fills to the kernel table).
ALLOWED_DEPS = {
    "attack": {"bits", "core", "defense", "distiller", "ecc", "fuzzy", "group",
               "helperdata", "obs", "pairing", "rng", "stats", "tempaware"},
    "bits": {"rng"},
    "core": {"bits", "fi", "helperdata", "obs", "rng", "sim"},
    "defense": {"core", "hash", "helperdata", "rng"},
    "distiller": {"sim"},
    "ecc": {"bits", "obs", "rng", "simd"},
    "fi": {"rng"},
    "fleet": {"core", "fi", "obs", "rng", "sim", "xp"},
    "fuzzy": {"bits", "ecc", "hash", "helperdata"},
    "group": {"bits", "core", "distiller", "ecc", "helperdata", "sim", "stats"},
    "hardened": {"group", "helperdata", "pairing"},
    "hash": set(),
    "helperdata": {"bits", "hash", "rng"},
    "obs": set(),
    "pairing": {"bits", "core", "distiller", "ecc", "helperdata", "obs", "sim",
                "simd"},
    "rng": {"obs", "simd"},
    "sim": {"obs", "rng", "simd"},
    "simd": {"rng"},
    "stats": set(),
    "tempaware": {"bits", "core", "ecc", "helperdata", "pairing", "sim"},
    "xp": {"core", "defense", "fi", "obs", "simd"},
}

# The JSONL record schema contract (src/ropuf/xp/result_store.cpp,
# to_jsonl, plus src/ropuf/fleet/campaign.cpp, shard_record_line).
# Deterministic keys are compared byte-for-byte by tools/diff_results.py
# and pinned by the golden files; side keys (the IGNORED_KEYS tuple in
# diff_results.py, parsed at lint time) are host-bound, and SIDE_FIELDS
# are the keys nested inside them. A newly emitted key must land in
# exactly one of these registries.
DETERMINISTIC_KEYS = {
    "v", "spec", "spec_hash", "job", "index", "scenario", "outcome",
    "point", "cols", "rows", "sigma_noise_mhz", "ambient_c",
    "majority_wins", "ecc_m", "ecc_t", "query_budget", "defense", "trials",
    "root_seed", "campaign_seed",
    "result", "key_recovered_count", "success_rate", "mean_accuracy",
    "outcomes", "recovered", "gave_up", "budget_exhausted",
    "refused_by_defense", "locked_out", "total_measurements",
    "mean", "stddev", "min", "max", "p95",  # MetricSummary sub-objects
    # fleet shard records (fleet/campaign.cpp)
    "shard", "device_first", "device_count", "key_bits", "base_seed",
    "devices_ok", "trials_ok", "bit_errors", "success_hist", "measurements",
}
SIDE_FIELDS = {
    # inside "timing"
    "workers", "wall_ms", "trial_wall_ms_sum", "measurements_per_s",
    "simd", "hardware_concurrency",
    # inside "fault"
    "attempts", "class", "message",
    # inside "obs" (the histogram summary is written by
    # obs::write_hist_summary, outside the emitter files below)
    "counters", "hist", "count", "p50", "p99",
}
JSONL_EMITTERS = (
    "src/ropuf/xp/result_store.cpp",
    "src/ropuf/fleet/campaign.cpp",
)
DIFF_RESULTS = "tools/diff_results.py"
# Emitted keys appear in C++ source as JsonWriter key("key") calls, or as
# \"key\": inside hand-built string literals.
EMITTED_KEY = re.compile(
    r'\bkey\s*\(\s*"([A-Za-z_][A-Za-z0-9_]*)"\s*\)'
    r'|\\"([A-Za-z_][A-Za-z0-9_]*)\\":')

RULES = {
    "banned-symbol": "nondeterminism sources banned in src/",
    "unordered-iteration": "no unordered-container iteration in serializers",
    "jsonl-key-registry": "every emitted JSONL key must be registered",
    "obs-macro-literal": "ROPUF_OBS_* macros take literal names only",
    "layer-dag": "#include hygiene for the src/ropuf layer graph",
}


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Source model: comment/string stripping + function extents
# ---------------------------------------------------------------------------

def strip_comments(text: str) -> str:
    """Blanks comments (preserving newlines/column positions) so rule
    regexes never fire on prose. String literals are preserved — several
    rules inspect them."""
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
        elif state == "string":
            if c == "\\" and nxt:
                out.append(c)
                out.append(nxt)
                i += 2
                continue
            if c == '"' or c == "\n":
                state = "code"
            out.append(c)
        elif state == "char":
            if c == "\\" and nxt:
                out.append(c)
                out.append(nxt)
                i += 2
                continue
            if c == "'" or c == "\n":
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


def blank_strings(text: str) -> str:
    """Blanks string/char literal CONTENTS (quotes stay, newlines stay) so
    brace tracking never counts a `{` inside `out += "{"`. Input is
    comment-stripped text."""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == '"':
                state = "string"
            elif c == "'":
                state = "char"
            out.append(c)
        else:
            quote = '"' if state == "string" else "'"
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
                continue
            if c == quote or c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def functions_by_braces_nested(text: str):
    """Brace-tracking function-extent scanner, tolerant of namespace/class
    nesting: finds `)` ... `{` openings at ANY depth and extracts the
    matched brace range. Overlapping ranges (lambdas inside functions) are
    fine — rules only use bodies as grouping scopes. String literal
    contents are blanked first so braces inside strings don't skew the
    match. Yields (start_line, end_line, header, body) where header is the
    parameter list `( ... )` preceding the body — the scope for
    declaration-sensitive rules (a variable's unordered-ness must be
    judged per function, not per file: two functions may reuse a parameter
    name at different types)."""
    results = []
    text = blank_strings(text)
    n = len(text)
    line_of = [1] * (n + 1)
    ln = 1
    for i, ch in enumerate(text):
        line_of[i] = ln
        if ch == "\n":
            ln += 1
    line_of[n - 1 if n else 0] = ln

    for m in re.finditer(r"\)\s*(?:const|noexcept|override|final|mutable|->\s*[\w:<>,&*\s]*?)?\s*\{",
                         text):
        open_idx = m.end() - 1
        depth = 0
        close_idx = None
        for j in range(open_idx, n):
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
                if depth == 0:
                    close_idx = j
                    break
        if close_idx is None:
            continue
        # Backward paren-match from the `)` the regex anchored on, to
        # recover the parameter list as the header scope.
        rparen_idx = m.start()
        depth = 0
        lparen_idx = rparen_idx
        for j in range(rparen_idx, -1, -1):
            if text[j] == ")":
                depth += 1
            elif text[j] == "(":
                depth -= 1
                if depth == 0:
                    lparen_idx = j
                    break
        results.append((line_of[open_idx], line_of[close_idx],
                        text[lparen_idx:open_idx],
                        text[open_idx:close_idx + 1]))
    return results


def try_libclang_functions(path: str, text: str):
    """AST-accurate function extents via libclang, when the bindings are
    importable (they are not in the stock container — the brace tracker is
    the default engine). Returns None to signal fallback."""
    try:
        from clang import cindex  # type: ignore
    except Exception:
        return None
    try:
        index = cindex.Index.create()
        tu = index.parse(path, args=["-std=c++20", f"-I{REPO_ROOT}/src"],
                         unsaved_files=[(path, text)])
        lines = text.split("\n")
        out = []
        kinds = {cindex.CursorKind.FUNCTION_DECL, cindex.CursorKind.CXX_METHOD,
                 cindex.CursorKind.CONSTRUCTOR, cindex.CursorKind.DESTRUCTOR,
                 cindex.CursorKind.LAMBDA_EXPR, cindex.CursorKind.FUNCTION_TEMPLATE}

        def walk(cursor):
            for child in cursor.get_children():
                if child.kind in kinds and child.is_definition() and \
                        child.location.file and child.location.file.name == path:
                    start, end = child.extent.start.line, child.extent.end.line
                    # The cursor extent includes the signature, so the
                    # header scope rides inside `body`; header stays empty.
                    body = "\n".join(lines[start - 1:end])
                    out.append((start, end, "", body))
                walk(child)

        walk(tu.cursor)
        return out if out else None
    except Exception:
        return None


def function_bodies(path: str, stripped: str):
    bodies = try_libclang_functions(path, stripped)
    if bodies is not None:
        return bodies
    return functions_by_braces_nested(stripped)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def rel(path: str) -> str:
    return os.path.relpath(os.path.abspath(path), REPO_ROOT).replace(os.sep, "/")


def check_banned_symbols(path: str, stripped: str, findings: list):
    rpath = rel(path)
    marker = rpath.find(BANNED_SYMBOL_SCOPE)
    if marker != 0 and f"/{BANNED_SYMBOL_SCOPE}" not in rpath:
        return
    scoped = rpath[rpath.index(BANNED_SYMBOL_SCOPE):]
    if any(scoped.startswith(prefix) for prefix in BANNED_SYMBOL_ALLOWLIST):
        return
    # Blank string contents so prose like "wall time (ms)" in a report
    # label can't impersonate a time() call.
    for line_no, line in enumerate(blank_strings(stripped).split("\n"), start=1):
        for pattern, label in BANNED_SYMBOLS:
            if pattern.search(line):
                findings.append(Finding(
                    rpath, line_no, "banned-symbol",
                    f"{label} is banned in library code: draw randomness "
                    f"from seeded ropuf::rng streams and clocks from "
                    f"std::chrono::steady_clock (side-keys only). "
                    f"Wall-clock-only files can be allowlisted in "
                    f"tools/ropuf_lint.py."))


def check_unordered_iteration(path: str, stripped: str, findings: list):
    # Known fallback-engine limitation: only declarations visible in the
    # function's own signature or body are seen — an unordered MEMBER
    # iterated in a .cpp method slips through unless the loop expression
    # itself names `unordered_`. The libclang engine and clang-tidy's
    # bugprone checks cover that corner in CI.
    rpath = rel(path)
    for start, _end, header, body in function_bodies(path, stripped):
        if not SERIALIZER_CALLS.search(header + body):
            continue
        unordered_vars = set(UNORDERED_DECL.findall(header)) | \
            set(UNORDERED_DECL.findall(body))
        for m in RANGE_FOR.finditer(body):
            iterated = m.group(2).strip()
            over_unordered = "unordered_" in iterated or any(
                re.search(rf"\b{re.escape(v)}\b", iterated)
                for v in unordered_vars)
            if not over_unordered:
                continue
            line = start + body[:m.start()].count("\n")
            findings.append(Finding(
                rpath, line, "unordered-iteration",
                f"range-for over unordered container `{iterated}` in a "
                f"function that serializes: iteration order is hash-seed "
                f"dependent, so emitted bytes would differ across hosts. "
                f"Copy into a std::map/sorted vector first."))


def parse_ignored_keys(diff_results_path: str):
    """Reads the IGNORED_KEYS tuple literal out of diff_results.py without
    importing it (the script calls sys.exit at module level on errors)."""
    with open(diff_results_path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "IGNORED_KEYS":
                    value = ast.literal_eval(node.value)
                    return set(value)
    raise RuntimeError(f"IGNORED_KEYS tuple not found in {diff_results_path}")


def check_jsonl_keys(path: str, stripped: str, findings: list,
                     diff_results_path: str):
    rpath = rel(path)
    side_keys = parse_ignored_keys(diff_results_path)
    registered = DETERMINISTIC_KEYS | SIDE_FIELDS | side_keys
    for line_no, line in enumerate(stripped.split("\n"), start=1):
        for m in EMITTED_KEY.finditer(line):
            key = m.group(1) or m.group(2)
            if key in registered:
                continue
            findings.append(Finding(
                rpath, line_no, "jsonl-key-registry",
                f'emitted JSONL key "{key}" is registered nowhere: add it '
                f"to DETERMINISTIC_KEYS/SIDE_FIELDS in tools/ropuf_lint.py "
                f"(deterministic-prefix contract) or, if host-bound, to "
                f"IGNORED_KEYS in tools/diff_results.py — and update the "
                f"golden files accordingly."))


def check_obs_macro_literal(path: str, stripped: str, findings: list):
    rpath = rel(path)
    if rpath.endswith("src/ropuf/obs/metrics.hpp"):
        return  # the macro definitions themselves
    for line_no, line in enumerate(stripped.split("\n"), start=1):
        for m in OBS_MACRO.finditer(line):
            first_arg = m.group(1).strip()
            if first_arg.startswith('"'):
                continue
            findings.append(Finding(
                rpath, line_no, "obs-macro-literal",
                f"ROPUF_OBS_* first argument must be a string literal "
                f"(got `{first_arg}`): the macro caches the interned id "
                f"per call site, so a runtime name would bind to whatever "
                f"was passed first. Use obs::registry()->counter(name) "
                f"for dynamic names."))


def check_layer_dag(path: str, stripped: str, findings: list):
    rpath = rel(path)
    m = LAYER_PATH.search(rpath)
    if m is None:
        return
    layer = m.group(1)
    allowed = ALLOWED_DEPS.get(layer)
    if allowed is None:
        findings.append(Finding(
            rpath, 1, "layer-dag",
            f"layer `{layer}` is not declared in ALLOWED_DEPS "
            f"(tools/ropuf_lint.py): new layers must declare their "
            f"dependency set."))
        return
    for line_no, line in enumerate(stripped.split("\n"), start=1):
        inc = INCLUDE_ROPUF.search(line)
        if inc is None:
            continue
        target = inc.group(1)
        if target == layer or target in allowed:
            continue
        findings.append(Finding(
            rpath, line_no, "layer-dag",
            f"layer `{layer}` must not include `ropuf/{target}/`: allowed "
            f"dependencies are {{{', '.join(sorted(allowed)) or 'none'}}}. "
            f"Growing the layer graph is an ALLOWED_DEPS edit in "
            f"tools/ropuf_lint.py, reviewed on purpose."))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def lint_file(path: str, diff_results_path: str, jsonl_emitters):
    findings: list = []
    rpath = rel(path)
    if rpath.endswith((".py",)):
        return findings  # python sources are inputs to rules, not subjects
    if not rpath.endswith(CPP_EXTENSIONS):
        return findings
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    stripped = strip_comments(text)
    check_banned_symbols(path, stripped, findings)
    check_unordered_iteration(path, stripped, findings)
    check_obs_macro_literal(path, stripped, findings)
    check_layer_dag(path, stripped, findings)
    if any(rpath.endswith(emitter) for emitter in jsonl_emitters):
        check_jsonl_keys(path, stripped, findings, diff_results_path)
    return findings


def collect_files(paths):
    out = []
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, files in os.walk(p):
                for name in sorted(files):
                    if name.endswith(CPP_EXTENSIONS):
                        out.append(os.path.join(root, name))
        elif os.path.isfile(p):
            out.append(p)
        else:
            print(f"ropuf-lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return out


def run_lint(paths, diff_results_path, jsonl_emitters=JSONL_EMITTERS):
    findings = []
    for path in collect_files(paths):
        findings.extend(lint_file(path, diff_results_path, jsonl_emitters))
    return findings


# ---------------------------------------------------------------------------
# Self-test over the fixture tree
# ---------------------------------------------------------------------------

EXPECT_MARK = re.compile(r"lint-expect:\s*([a-z-]+)")


def self_test(fixtures_dir: str) -> int:
    """Fixture contract: every *.cpp/*.hpp under tests/lint_fixtures/ is
    linted. Lines carrying `lint-expect: <rule>` (in a comment) must
    produce exactly that finding on that line; files with no markers must
    lint clean. A missing or extra finding fails the suite."""
    failures = []
    checked = 0
    expected_total = 0
    diff_results = os.path.join(REPO_ROOT, DIFF_RESULTS)
    fixture_diff = os.path.join(fixtures_dir, "diff_results_fixture.py")
    if os.path.exists(fixture_diff):
        diff_results = fixture_diff
    for root, _dirs, files in os.walk(fixtures_dir):
        for name in sorted(files):
            if not name.endswith(CPP_EXTENSIONS):
                continue
            path = os.path.join(root, name)
            checked += 1
            with open(path, encoding="utf-8") as f:
                raw_lines = f.readlines()
            expected = {}
            for line_no, line in enumerate(raw_lines, start=1):
                m = EXPECT_MARK.search(line)
                if m:
                    expected.setdefault(line_no, []).append(m.group(1))
                    expected_total += 1
            got = {}
            for finding in lint_file(path, diff_results,
                                     jsonl_emitters=("result_store_fixture.cpp",)):
                got.setdefault(finding.line, []).append(finding.rule)
            for line_no, rules in sorted(expected.items()):
                for rule in rules:
                    if rule not in got.get(line_no, []):
                        failures.append(
                            f"{rel(path)}:{line_no}: expected [{rule}] "
                            f"finding did not fire")
            for line_no, rules in sorted(got.items()):
                for rule in rules:
                    if rule not in expected.get(line_no, []):
                        failures.append(
                            f"{rel(path)}:{line_no}: unexpected [{rule}] "
                            f"finding fired")
    if checked == 0:
        print(f"ropuf-lint self-test: no fixtures under {fixtures_dir}",
              file=sys.stderr)
        return 2
    if failures:
        print(f"ropuf-lint self-test: {len(failures)} contract "
              f"violation(s) across {checked} fixture file(s):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"ropuf-lint self-test: OK — {checked} fixture file(s), "
          f"{expected_total} expected finding(s) all fired, no extras.")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="ropuf repo-invariant linter (see module docstring)")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files/dirs to lint (default: src/ tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture suite under tests/lint_fixtures/")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--fixtures",
                        default=os.path.join(REPO_ROOT, "tests", "lint_fixtures"),
                        help="fixture tree for --self-test")
    parser.add_argument("--diff-results",
                        default=os.path.join(REPO_ROOT, DIFF_RESULTS),
                        help="diff_results.py to read IGNORED_KEYS from")
    args = parser.parse_args()

    if args.list_rules:
        width = max(len(r) for r in RULES)
        for rule, summary in RULES.items():
            print(f"{rule:<{width}}  {summary}")
        return 0
    if args.self_test:
        return self_test(args.fixtures)

    paths = args.paths or [os.path.join(REPO_ROOT, "src"),
                           os.path.join(REPO_ROOT, "tools")]
    findings = run_lint(paths, args.diff_results)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"ropuf-lint: {len(findings)} finding(s).", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
