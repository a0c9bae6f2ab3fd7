#!/usr/bin/env python3
"""In-tree lint gate for Ocularone-Bench (DESIGN.md §10).

Project-specific static checks that neither the compiler nor clang-tidy
enforce. Every rule is a convention this codebase relies on for
correctness:

  raw-mutex        std::mutex / std::lock_guard / std::unique_lock /
                   std::condition_variable / std::scoped_lock anywhere in
                   src/ outside core/thread_annotations.hpp. All locking
                   goes through the annotated ocb::Mutex/MutexLock/
                   CondVar wrappers so clang's -Wthread-safety can prove
                   the lock discipline.
  raw-assert       assert() call sites (and <cassert>/<assert.h>
                   includes) in src/. Contracts use OCB_CHECK /
                   OCB_DCHECK (core/check.hpp), which carry expression +
                   location, stay on in release builds (CHECK), and
                   route through the configurable failure handler.
  hot-path-heap    raw `new` / malloc / calloc / realloc under src/nn
                   and src/tensor — the steady-state inference layers
                   whose zero-allocation contract AllocGuard enforces at
                   test time. Owning containers sized at plan time are
                   fine; raw allocations in these layers are not.
  unguarded-field  a class data member declared *after* an ocb::Mutex
                   member without OCB_GUARDED_BY. Convention: fields the
                   mutex guards come after it and carry the annotation;
                   immutable / single-owner fields go before it.
  guarded-by-exists
                   OCB_GUARDED_BY(m) must name a Mutex member declared
                   in the same class or an enclosing one. On non-clang
                   builds the macro expands to nothing, so a dangling
                   mutex name compiles everywhere and silently disables
                   the -Wthread-safety proof for that field on the one
                   CI leg that could have checked it.
  include-hygiene  files that use ocb::Mutex / MutexLock / CondVar /
                   OCB_GUARDED_BY must include core/thread_annotations.hpp
                   themselves rather than leaning on transitive includes.
  im2col-materialize
                   direct column-matrix materialization (im2col /
                   im2col_scratch / im2col_u8_quads) in src/ outside the
                   planner-dispatched conv drivers (nn/ops.cpp,
                   nn/quantize.cpp), the kernels' own TUs and the
                   training-time autograd lowering. The planner prices
                   whether a layer's full column matrix is worth the
                   bytes (ConvAlgo::kIm2colGemm vs the fused stripe
                   packer); an ad-hoc lowering bypasses that decision
                   and silently reintroduces the O(k^2) DRAM traffic
                   the fused path exists to eliminate (DESIGN.md §13).
  simd-tu          AVX2/extended-ISA intrinsics (or <immintrin.h>)
                   outside a *_avx2.cpp translation unit. Only the
                   *_avx2.cpp TUs are compiled with -mavx2 -mfma (plus
                   -mf16c where available); an intrinsic leaking into a
                   portable TU either fails the build on a plain target
                   or, worse, emits AVX2 into code reached before the
                   runtime dispatch check. src/tensor/simd_math.hpp is
                   the one allowlisted header (included by those TUs
                   only).
  sparse-dense-unpack
                   PackedSparseA::unpack_masked_dense / PackedHalfA::
                   unpack_dense calls in src/ outside their definition
                   TU. These reconstruct a dense weight matrix and exist
                   as test/telemetry oracles; a sparse-plan hot path
                   calling one silently forfeits the entire bandwidth
                   win the plan was priced on.
  fault-hook-guard fault-injection hook calls (maybe_corrupt_lanes /
                   set_lane_fault) in src/tensor or src/nn outside an
                   #if region mentioning OCB_FAULT_HOOKS. The hooks
                   must compile to nothing in Release hot paths when
                   the option is off; an unguarded call site would ship
                   the corruption branch (and its atomic load) in every
                   production kernel dispatch (DESIGN.md §14).
  health-state     a declaration of cooldown_left / health_strikes /
                   quarantined outside src/runtime/health_gate.*. The
                   degrade → cooldown → probe → quarantine → reload →
                   re-admit policy lives in one HealthGate that both
                   runtimes drive (DESIGN.md §14); a second hand-written
                   copy drifts from it, as the two copies it replaced
                   did.
  bench-baseline   bench/baselines/*.json must parse as the one bench
                   record format scripts/check_bench_regression.py
                   reads: a `bench` name, a `provenance` object and a
                   non-empty `records` list whose entries carry exactly
                   subject / variant / metric / value / unit, with a
                   numeric value (a string only for a dispatch `path`).
                   A malformed baseline then fails in lint, not in a
                   release-gate CI step.

Suppressions: append `// ocb-lint: allow(<rule>)` to the offending line.

Usage:
  scripts/ocb_lint.py                   # lint the whole tree
  scripts/ocb_lint.py --diff BASE       # only files changed since BASE
  scripts/ocb_lint.py --self-test       # prove every rule still fires
  scripts/ocb_lint.py --format=json     # machine-readable findings
  scripts/ocb_lint.py --format=github   # ::error annotations for CI
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

CXX_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}

# Files allowed to touch raw primitives: the annotation shim is the one
# place std primitives live, and the alloc guard implements the heap
# hooks themselves.
RAW_MUTEX_ALLOWED = {"src/core/thread_annotations.hpp"}
HEAP_ALLOWED = {"src/core/alloc_guard.cpp"}

ALLOW_RE = re.compile(r"//\s*ocb-lint:\s*allow\(([a-z0-9\-, ]+)\)")


class Finding:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line: str) -> str:
    """Best-effort removal of string/char literals and // comments so
    rule regexes do not fire on prose. Block comments are handled per
    line (enough for this tree's style)."""
    out = []
    i, n = 0, len(line)
    in_str: str | None = None
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
            i += 1
            continue
        if c in "\"'":
            in_str = c
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            close = line.find("*/", i + 2)
            if close == -1:
                break
            i = close + 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


def allowed_rules(line: str) -> set[str]:
    m = ALLOW_RE.search(line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


# --- rule: raw-mutex --------------------------------------------------------

RAW_MUTEX_RE = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|shared_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable(_any)?)\b"
)


def check_raw_mutex(rel: str, lines: list[str]) -> list[Finding]:
    if rel in RAW_MUTEX_ALLOWED or not rel.startswith("src/"):
        return []
    findings = []
    for i, raw in enumerate(lines, 1):
        if "raw-mutex" in allowed_rules(raw):
            continue
        m = RAW_MUTEX_RE.search(strip_comments_and_strings(raw))
        if m:
            findings.append(Finding(
                "raw-mutex", rel, i,
                f"{m.group(0)} outside core/thread_annotations.hpp — use "
                "ocb::Mutex / MutexLock / CondVar so -Wthread-safety can "
                "check the lock discipline"))
    return findings


# --- rule: raw-assert -------------------------------------------------------

RAW_ASSERT_RE = re.compile(r"(?<![A-Za-z0-9_])assert\s*\(")
ASSERT_INCLUDE_RE = re.compile(r'#\s*include\s*[<"](cassert|assert\.h)[>"]')


def check_raw_assert(rel: str, lines: list[str]) -> list[Finding]:
    if not rel.startswith("src/"):
        return []
    findings = []
    for i, raw in enumerate(lines, 1):
        if "raw-assert" in allowed_rules(raw):
            continue
        code = strip_comments_and_strings(raw)
        if ASSERT_INCLUDE_RE.search(code):
            findings.append(Finding(
                "raw-assert", rel, i,
                "<cassert> include — contracts use core/check.hpp"))
            continue
        if "static_assert" in code:
            continue
        if RAW_ASSERT_RE.search(code):
            findings.append(Finding(
                "raw-assert", rel, i,
                "assert() call — use OCB_CHECK/OCB_DCHECK (core/check.hpp)"))
    return findings


# --- rule: hot-path-heap ----------------------------------------------------

HEAP_PATH_PREFIXES = ("src/nn/", "src/tensor/")
HEAP_RE = re.compile(
    r"(?<![A-Za-z0-9_])(new\s+[A-Za-z_:<]|malloc\s*\(|calloc\s*\(|"
    r"realloc\s*\(|aligned_alloc\s*\(|posix_memalign\s*\()"
)


def check_hot_path_heap(rel: str, lines: list[str]) -> list[Finding]:
    if rel in HEAP_ALLOWED or not rel.startswith(HEAP_PATH_PREFIXES):
        return []
    findings = []
    for i, raw in enumerate(lines, 1):
        if "heap" in allowed_rules(raw):
            continue
        m = HEAP_RE.search(strip_comments_and_strings(raw))
        if m:
            findings.append(Finding(
                "hot-path-heap", rel, i,
                f"raw allocation ({m.group(0).strip()}...) in an inference "
                "hot-path layer — plan storage at construction (arena, "
                "pre-sized members); AllocGuard will fail the tests "
                "otherwise"))
    return findings


# --- rule: unguarded-field --------------------------------------------------

MUTEX_MEMBER_RE = re.compile(r"^\s*(mutable\s+)?(ocb::)?Mutex\s+\w+_?\s*;")
# A data-member declaration: type tokens then an identifier ending in
# '_' and `;` (optionally with an initialiser). Methods, using-decls and
# friend lines won't match.
FIELD_RE = re.compile(
    r"^\s*(?:mutable\s+)?[A-Za-z_][\w:<>,\s\*&\.]*[\s\*&]"
    r"[A-Za-z_]\w*_\s*(?:=[^;]*|\{[^;]*\})?\s*;"
)
SCOPE_RESET_RE = re.compile(r"^\s*(\};|public:|protected:|struct\s|class\s)")
EXEMPT_FIELD_RE = re.compile(r"(ocb::)?(Mutex|CondVar)\s")


def check_unguarded_fields(rel: str, lines: list[str]) -> list[Finding]:
    if rel in RAW_MUTEX_ALLOWED or not rel.startswith("src/"):
        return []
    findings = []
    after_mutex = False
    for i, raw in enumerate(lines, 1):
        code = strip_comments_and_strings(raw)
        if SCOPE_RESET_RE.match(code):
            after_mutex = False
            continue
        if MUTEX_MEMBER_RE.match(code):
            after_mutex = True
            continue
        if not after_mutex:
            continue
        if "unguarded-field" in allowed_rules(raw):
            continue
        if EXEMPT_FIELD_RE.search(code):
            continue  # further synchronisation primitives
        if "OCB_GUARDED_BY" in code or "OCB_PT_GUARDED_BY" in code:
            continue
        if FIELD_RE.match(code):
            findings.append(Finding(
                "unguarded-field", rel, i,
                "data member declared after a Mutex without "
                "OCB_GUARDED_BY — move it above the mutex if it is not "
                "guarded, or annotate it"))
    return findings


# --- rule: guarded-by-exists ------------------------------------------------

CLASS_DECL_RE = re.compile(r"\b(class|struct)\s+[A-Za-z_]\w*")
ENUM_CLASS_RE = re.compile(r"\benum\s+(class|struct)\b")
MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:ocb::)?Mutex\s+([A-Za-z_]\w*)\s*;")
GUARDED_USE_RE = re.compile(
    r"\bOCB_(?:PT_)?GUARDED_BY\s*\(\s*([A-Za-z_]\w*)\s*\)")


def check_guarded_by_exists(rel: str, lines: list[str]) -> list[Finding]:
    """Cross-line: every OCB_GUARDED_BY(m) inside a class body must name
    a Mutex member of that class or an enclosing one. Scope tracking is
    brace-based over comment/string-stripped lines; a use is resolved
    against the scope objects live at its line, *after* the whole file
    is scanned, so a mutex declared below the annotated field (or below
    a nested class) still counts — the annotation on a continuation
    line in nn/conv_plan.hpp and the nested-helper pattern both rely on
    that. Uses outside any class body (macro shims, file-scope globals)
    are left alone: clang resolves those in a context this scanner
    cannot model."""
    if rel in RAW_MUTEX_ALLOWED or not rel.startswith("src/"):
        return []
    class_scopes: list[dict] = []  # {"open_depth": int, "mutexes": set}
    uses: list[tuple[int, str, list[dict]]] = []
    depth = 0
    pending_class = False
    for i, raw in enumerate(lines, 1):
        code = strip_comments_and_strings(raw)
        m = MUTEX_DECL_RE.match(code)
        if m and class_scopes:
            class_scopes[-1]["mutexes"].add(m.group(1))
        if class_scopes and "guarded-by-exists" not in allowed_rules(raw):
            for use in GUARDED_USE_RE.finditer(code):
                uses.append((i, use.group(1), list(class_scopes)))
        if CLASS_DECL_RE.search(code) and not ENUM_CLASS_RE.search(code):
            pending_class = True
        for ch in code:
            if ch == ";" and pending_class:
                pending_class = False  # forward declaration
            elif ch == "{":
                if pending_class:
                    class_scopes.append({"open_depth": depth,
                                         "mutexes": set()})
                    pending_class = False
                depth += 1
            elif ch == "}":
                depth -= 1
                if class_scopes and depth == class_scopes[-1]["open_depth"]:
                    class_scopes.pop()  # uses keep their reference
    findings = []
    for line_no, name, scopes in uses:
        if any(name in s["mutexes"] for s in scopes):
            continue
        findings.append(Finding(
            "guarded-by-exists", rel, line_no,
            f"OCB_GUARDED_BY({name}) does not name a Mutex member of "
            "this class or an enclosing one — the macro expands to "
            "nothing off-clang, so a dangling name silently disables "
            "the -Wthread-safety proof for this field"))
    return findings


# --- rule: include-hygiene --------------------------------------------------

ANNOTATION_USE_RE = re.compile(
    r"\b(MutexLock|CondVar|OCB_GUARDED_BY|OCB_REQUIRES|OCB_EXCLUDES)\b"
    r"|(?<!:)\bMutex\s+\w"
)
ANNOTATION_INCLUDE = 'core/thread_annotations.hpp'


def check_include_hygiene(rel: str, lines: list[str]) -> list[Finding]:
    if rel in RAW_MUTEX_ALLOWED or not rel.startswith("src/"):
        return []
    uses_at: int | None = None
    includes = False
    for i, raw in enumerate(lines, 1):
        code = strip_comments_and_strings(raw)
        if ANNOTATION_INCLUDE in raw and "#include" in raw:
            includes = True
        if uses_at is None and ANNOTATION_USE_RE.search(code):
            if "include-hygiene" in allowed_rules(raw):
                continue
            uses_at = i
    if uses_at is not None and not includes:
        return [Finding(
            "include-hygiene", rel, uses_at,
            "uses annotated locking primitives without including "
            f'"{ANNOTATION_INCLUDE}" directly')]
    return []


# --- rule: im2col-materialize -----------------------------------------------

IM2COL_MATERIALIZE_RE = re.compile(
    r"\bim2col(?:_scratch|_u8_quads)?\s*\("
)
# The column-lowering kernels live in tensor/im2col*; the only in-tree
# consumers allowed to materialize a column matrix are the
# planner-dispatched conv drivers (float + quantized) and the autograd
# training path (gradient lowering, never the inference hot path).
IM2COL_ALLOWED = {
    "src/tensor/im2col.hpp",
    "src/tensor/im2col.cpp",
    "src/tensor/im2col_avx2.cpp",
    "src/nn/ops.cpp",
    "src/nn/quantize.cpp",
    "src/autograd/ops.cpp",
}


def check_im2col_materialize(rel: str, lines: list[str]) -> list[Finding]:
    if rel in IM2COL_ALLOWED or not rel.startswith("src/"):
        return []
    findings = []
    for i, raw in enumerate(lines, 1):
        code = strip_comments_and_strings(raw)
        if not IM2COL_MATERIALIZE_RE.search(code):
            continue
        if "im2col-materialize" in allowed_rules(raw):
            continue
        findings.append(Finding(
            "im2col-materialize", rel, i,
            "column-matrix materialization outside the planner-approved "
            "conv drivers — the planner prices im2col vs the fused "
            "stripe packer per layer; lower through nn/ops.cpp or use "
            "Im2colPanelPacker (DESIGN.md §13)"))
    return findings


# --- rule: simd-tu ----------------------------------------------------------

SIMD_INTRINSIC_RE = re.compile(
    r"\b_mm(?:256|512)?_\w+\s*\(|\b__m(?:128|256|512)[id]?\b"
)
SIMD_INCLUDE_RE = re.compile(r'#\s*include\s*[<"]immintrin\.h[>"]')
# The vector-math header is shared by the *_avx2.cpp TUs; it must never
# be included from a portable TU (the TUs that may include it are
# exactly the ones this rule exempts).
SIMD_ALLOWED = {"src/tensor/simd_math.hpp"}


def check_simd_tu(rel: str, lines: list[str]) -> list[Finding]:
    if not rel.startswith("src/"):
        return []
    if rel.endswith("_avx2.cpp") or rel in SIMD_ALLOWED:
        return []
    findings = []
    for i, raw in enumerate(lines, 1):
        if "simd-tu" in allowed_rules(raw):
            continue
        code = strip_comments_and_strings(raw)
        m = SIMD_INCLUDE_RE.search(code) or SIMD_INTRINSIC_RE.search(code)
        if m:
            findings.append(Finding(
                "simd-tu", rel, i,
                f"extended-ISA intrinsic ({m.group(0).strip()}...) outside "
                "a *_avx2.cpp TU — only those are compiled with -mavx2; "
                "move the kernel there behind the runtime dispatch"))
    return findings


# --- rule: sparse-dense-unpack ----------------------------------------------

SPARSE_UNPACK_RE = re.compile(r"\bunpack_(?:masked_)?dense\s*\(")
# Declaration and definition live here; everything else in src/ must
# consume the packed panels directly.
SPARSE_UNPACK_ALLOWED = {
    "src/tensor/sgemm_sparse.hpp",
    "src/tensor/sgemm_sparse.cpp",
}


def check_sparse_dense_unpack(rel: str, lines: list[str]) -> list[Finding]:
    if rel in SPARSE_UNPACK_ALLOWED or not rel.startswith("src/"):
        return []
    findings = []
    for i, raw in enumerate(lines, 1):
        code = strip_comments_and_strings(raw)
        if not SPARSE_UNPACK_RE.search(code):
            continue
        if "sparse-dense-unpack" in allowed_rules(raw):
            continue
        findings.append(Finding(
            "sparse-dense-unpack", rel, i,
            "dense-weight reconstruction on a compressed panel — the "
            "unpack oracles are for tests/telemetry; hot paths must read "
            "the packed panels or the plan's bandwidth win is forfeit"))
    return findings


# --- rule: fault-hook-guard -------------------------------------------------

FAULT_HOOK_RE = re.compile(r"\b(?:maybe_corrupt_lanes|set_lane_fault)\s*\(")
# The hook's own declaration/definition TU provides the #else no-ops;
# everything else in the kernel layers must guard call sites so the
# Release hot path compiles them out entirely.
FAULT_HOOK_ALLOWED = {
    "src/tensor/fault_hook.hpp",
    "src/tensor/fault_hook.cpp",
}
FAULT_HOOK_PATHS = ("src/tensor/", "src/nn/")


def check_fault_hook_guard(rel: str, lines: list[str]) -> list[Finding]:
    if rel in FAULT_HOOK_ALLOWED or not rel.startswith(FAULT_HOOK_PATHS):
        return []
    findings = []
    # Stack of open preprocessor conditionals: True when the opening
    # directive mentions OCB_FAULT_HOOKS (the whole region through any
    # #else counts as guarded — the #else branch is the compiled-out
    # side and can only contain no-ops).
    if_stack: list[bool] = []
    for i, raw in enumerate(lines, 1):
        stripped = raw.lstrip()
        if stripped.startswith("#"):
            directive = stripped[1:].lstrip()
            if directive.startswith(("ifdef", "ifndef", "if")):
                if_stack.append("OCB_FAULT_HOOKS" in raw)
            elif directive.startswith("endif") and if_stack:
                if_stack.pop()
            continue
        code = strip_comments_and_strings(raw)
        if not FAULT_HOOK_RE.search(code):
            continue
        if "fault-hook-guard" in allowed_rules(raw):
            continue
        if any(if_stack):
            continue
        findings.append(Finding(
            "fault-hook-guard", rel, i,
            "fault-injection hook call outside an #if OCB_FAULT_HOOKS "
            "region — Release hot paths must compile the hooks out "
            "(DESIGN.md §14)"))
    return findings


# --- rule: health-state -----------------------------------------------------

HEALTH_STATE_ALLOWED = {
    "src/runtime/health_gate.hpp",
    "src/runtime/health_gate.cpp",
}
# A declaration: type tokens, then one of the state names (optionally a
# trailing-underscore member) and an initialiser or `;`. Member access
# (`st.quarantined = ...`), calls and `return quarantined;` don't match.
HEALTH_STATE_RE = re.compile(
    r"^\s*(?!(?:return|else|case|throw|delete|co_return)\b)"
    r"[A-Za-z_][\w:<>,\s\*&]*[\s\*&]"
    r"(cooldown_left|health_strikes|quarantined)_?\s*[=;{\[,]"
)


def check_health_state(rel: str, lines: list[str]) -> list[Finding]:
    if rel in HEALTH_STATE_ALLOWED:
        return []
    findings = []
    for i, raw in enumerate(lines, 1):
        m = HEALTH_STATE_RE.search(strip_comments_and_strings(raw))
        if not m or "health-state" in allowed_rules(raw):
            continue
        findings.append(Finding(
            "health-state", rel, i,
            f"health state `{m.group(1)}` declared outside "
            "runtime/health_gate.* — drive a HealthGate instead of "
            "hand-writing the quarantine state machine (DESIGN.md §14)"))
    return findings


# --- rule: bench-baseline ---------------------------------------------------

RECORD_TEXT_KEYS = ("subject", "variant", "metric", "unit")


def record_file_problems(data: object) -> list[str]:
    if not isinstance(data, dict):
        return ["baseline must be a JSON object"]
    problems = []
    if not isinstance(data.get("bench"), str) or not data["bench"]:
        problems.append("missing `bench` name")
    if not isinstance(data.get("provenance"), dict):
        problems.append("missing `provenance` object")
    records = data.get("records")
    if not isinstance(records, list) or not records:
        return problems + ["missing non-empty `records` list"]
    for i, record in enumerate(records):
        if (not isinstance(record, dict)
                or set(record) != {*RECORD_TEXT_KEYS, "value"}):
            problems.append(f"record {i}: keys must be exactly "
                            "subject, variant, metric, value, unit")
        elif not all(isinstance(record[k], str) for k in RECORD_TEXT_KEYS):
            problems.append(f"record {i}: subject, variant, metric and "
                            "unit must be strings")
        elif not (isinstance(record["value"], (int, float))
                  and not isinstance(record["value"], bool)
                  or record["metric"] == "path"
                  and isinstance(record["value"], str)):
            problems.append(f"record {i}: value must be a number (a "
                            "string only for a dispatch `path`)")
    return problems


def check_bench_baselines(paths: list[Path]) -> list[Finding]:
    findings = []
    for path in paths:
        rel = path.relative_to(REPO).as_posix()
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            findings.append(Finding(
                "bench-baseline", rel, 1, f"unreadable baseline: {err}"))
            continue
        findings.extend(
            Finding("bench-baseline", rel, 1,
                    f"{problem} (scripts/check_bench_regression.py reads "
                    "the record format)")
            for problem in record_file_problems(data))
    return findings


# --- driver -----------------------------------------------------------------

FILE_CHECKS = [
    check_raw_mutex,
    check_raw_assert,
    check_hot_path_heap,
    check_unguarded_fields,
    check_guarded_by_exists,
    check_include_hygiene,
    check_im2col_materialize,
    check_simd_tu,
    check_sparse_dense_unpack,
    check_fault_hook_guard,
    check_health_state,
]


def lint_file(path: Path) -> list[Finding]:
    rel = path.relative_to(REPO).as_posix()
    try:
        lines = path.read_text(errors="replace").splitlines()
    except OSError as err:
        return [Finding("io", rel, 1, f"unreadable: {err}")]
    findings: list[Finding] = []
    for check in FILE_CHECKS:
        findings.extend(check(rel, lines))
    return findings


def tree_files() -> list[Path]:
    out = subprocess.run(
        ["git", "ls-files", "src", "tests", "bench", "examples"],
        cwd=REPO, capture_output=True, text=True, check=True)
    return [REPO / f for f in out.stdout.splitlines()
            if Path(f).suffix in CXX_SUFFIXES]


def diff_files(base: str) -> list[Path]:
    out = subprocess.run(
        ["git", "diff", "--name-only", "--diff-filter=d", base, "--"],
        cwd=REPO, capture_output=True, text=True, check=True)
    return [REPO / f for f in out.stdout.splitlines()
            if Path(f).suffix in CXX_SUFFIXES and (REPO / f).exists()]


def run_lint(files: list[Path], with_baselines: bool) -> list[Finding]:
    findings: list[Finding] = []
    for path in files:
        findings.extend(lint_file(path))
    if with_baselines:
        findings.extend(
            check_bench_baselines(sorted((REPO / "bench/baselines").glob("*.json"))))
    return findings


# --- output formats ---------------------------------------------------------


def gh_data(s: str) -> str:
    """Escape a ::error message payload per GitHub's workflow-command
    syntax (order matters: % first)."""
    return s.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def gh_property(s: str) -> str:
    """Escape a ::error property value (file=, title=), which
    additionally reserves ':' and ','."""
    return gh_data(s).replace(":", "%3A").replace(",", "%2C")


def emit(findings: list[Finding], files: list[Path], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({
            "tool": "ocb_lint",
            "files": len(files),
            "findings": [{"rule": f.rule, "path": f.path, "line": f.line,
                          "message": f.message} for f in findings],
        }, indent=2))
        return
    if fmt == "github":
        # Annotations surface inline on the PR diff; the trailing
        # summary line still lands in the job log.
        for f in findings:
            print(f"::error file={gh_property(f.path)},line={f.line},"
                  f"title={gh_property('ocb_lint ' + f.rule)}::"
                  f"{gh_data(f.message)}")
    else:
        for f in findings:
            print(f)
    if findings:
        print(f"\nocb_lint: {len(findings)} finding(s) in "
              f"{len(files)} file(s)")
    else:
        print(f"ocb_lint: clean ({len(files)} files)")


# --- self-test --------------------------------------------------------------

SELF_TEST_CASES = [
    # (rule expected to fire, relative path to pretend, source lines)
    ("raw-mutex", "src/runtime/bad.cpp",
     ["std::mutex mu;"]),
    ("raw-mutex", "src/runtime/bad.cpp",
     ["std::lock_guard<std::mutex> lock(mu);"]),
    ("raw-assert", "src/nn/bad.cpp",
     ["#include <cassert>"]),
    ("raw-assert", "src/nn/bad.cpp",
     ["assert(x > 0);"]),
    ("hot-path-heap", "src/tensor/bad.cpp",
     ["float* p = new float[1024];"]),
    ("hot-path-heap", "src/nn/bad.cpp",
     ["void* p = malloc(64);"]),
    ("unguarded-field", "src/runtime/bad.hpp",
     ["class Q {",
      " private:",
      "  mutable Mutex mutex_;",
      "  std::size_t depth_ = 0;",
      "};"]),
    ("guarded-by-exists", "src/runtime/bad.hpp",
     ["#include \"core/thread_annotations.hpp\"",
      "class Q {",
      "  mutable Mutex mutex_;",
      "  std::size_t depth_ OCB_GUARDED_BY(mutx_) = 0;",
      "};"]),
    ("guarded-by-exists", "src/runtime/bad2.hpp",
     ["#include \"core/thread_annotations.hpp\"",
      "class A {",
      "  mutable Mutex mutex_;",
      "};",
      "class B {",
      "  int hits_ OCB_GUARDED_BY(mutex_) = 0;",
      "};"]),
    ("include-hygiene", "src/runtime/bad.hpp",
     ["class Q {",
      "  MutexLock hold();",
      "};"]),
    ("im2col-materialize", "src/runtime/bad.cpp",
     ["im2col(input, geom, col.data());"]),
    ("im2col-materialize", "src/nn/bad.cpp",
     ["float* col = im2col_scratch(input, geom, scratch);"]),
    ("im2col-materialize", "src/nn/bad.cpp",
     ["im2col_u8_quads(input, geom, zp, quads);"]),
    ("simd-tu", "src/nn/bad.cpp",
     ["__m256 acc = _mm256_setzero_ps();"]),
    ("simd-tu", "src/tensor/bad.hpp",
     ["#include <immintrin.h>"]),
    ("sparse-dense-unpack", "src/nn/bad.cpp",
     ["sparse_packed_[i].unpack_masked_dense(scratch.data());"]),
    ("sparse-dense-unpack", "src/nn/bad.cpp",
     ["half_packed_[i].unpack_dense(scratch.data());"]),
    ("fault-hook-guard", "src/tensor/bad.cpp",
     ["fault_hook::detail::maybe_corrupt_lanes(c, m, n, ldc);"]),
    ("fault-hook-guard", "src/nn/bad.cpp",
     ["#if defined(OCB_FAULT_HOOKS)",
      "#endif",
      "fault_hook::set_lane_fault(fault);"]),
    ("health-state", "src/runtime/bad.cpp",
     ["  int cooldown_left = 0;"]),
    ("health-state", "src/runtime/bad.hpp",
     ["  bool quarantined = false;  ///< must reload to re-admit"]),
    ("health-state", "bench/bad.cpp",
     ["  std::atomic<int> health_strikes_{0};"]),
]

SELF_TEST_CLEAN = [
    ("src/runtime/good.cpp",
     ["// std::mutex in a comment is fine",
      "const char* s = \"std::mutex\";",
      "static_assert(sizeof(int) == 4);",
      "std::mutex mu;  // ocb-lint: allow(raw-mutex)"]),
    ("src/runtime/good.hpp",
     ["#include \"core/thread_annotations.hpp\"",
      "class Q {",
      "  std::size_t capacity_;  // before the mutex: immutable",
      "  mutable Mutex mutex_;",
      "  CondVar cv_;",
      "  std::size_t depth_ OCB_GUARDED_BY(mutex_) = 0;",
      "};"]),
    ("src/nn/good.cpp",
     ["buffer_.resize(n);  // owning container growth is fine",
      "auto plan = std::make_unique<Plan>();  // not a raw new"]),
    ("src/runtime/good4.hpp",
     ["#include \"core/thread_annotations.hpp\"",
      "class Q {",
      "  struct Waiter {",
      "    int generation_ OCB_GUARDED_BY(mutex_) = 0;",
      "  };",
      "  mutable Mutex mutex_;  // declared after the nested use",
      "  std::deque<int>",
      "      items_ OCB_GUARDED_BY(mutex_);",
      "};",
      "Mutex g_registry_mu;",
      "#define WRAP(x) OCB_GUARDED_BY(x)  // file scope: lenient"]),
    ("src/runtime/good2.cpp",
     ["// im2col(x) in a comment is fine",
      "engine->prepare(request);",
      "im2col(input, geom, col);  // ocb-lint: allow(im2col-materialize)"]),
    ("src/nn/ops.cpp",
     ["const float* col = im2col_scratch(input, geom, scratch);"]),
    ("src/nn/good.cpp",
     ["packer.pack(x0, x1, panel);  // fused stripe packing is the point"]),
    ("src/tensor/sgemm_sparse_avx2.cpp",
     ["__m256 acc = _mm256_setzero_ps();",
      "#include <immintrin.h>"]),
    ("src/tensor/simd_math.hpp",
     ["#include <immintrin.h>"]),
    ("src/tensor/sgemm_sparse.cpp",
     ["void PackedSparseA::unpack_masked_dense(float* out) const {"]),
    ("src/nn/good2.cpp",
     ["// unpack_masked_dense is the test oracle, not a hot path"]),
    ("src/tensor/good_gemm.cpp",
     ["#if defined(OCB_FAULT_HOOKS)",
      "  fault_hook::detail::maybe_corrupt_lanes(c, m, n, n);",
      "#endif"]),
    ("src/tensor/fault_hook.cpp",
     ["void set_lane_fault(const LaneFault& fault) noexcept {"]),
    ("src/runtime/good3.cpp",
     ["injector.arm_lane_fault();  // outside the kernel layers"]),
    ("src/runtime/good5.cpp",
     ["st.quarantined = true;  // member access, not a declaration",
      "if (gate.quarantined()) return quarantined;",
      "// bool quarantined = false; in a comment is fine"]),
    ("src/runtime/health_gate.hpp",
     ["  int cooldown_left_ = 0;",
      "  bool quarantined_ = false;"]),
]


SELF_TEST_BAD_BASELINES = [
    ("the bespoke kernels shape",
     {"simd": "avx2", "gemm": [{"label": "square", "speedup": 6.2}],
      "models": [{"name": "YOLOv8-n", "simd_ns_frame": 4.1e7}]}),
    ("a record missing its unit",
     {"bench": "fusion", "provenance": {},
      "records": [{"subject": "YOLOv8-x", "variant": "fused",
                   "metric": "frame_speedup", "value": 1.1}]}),
    ("a string value outside the dispatch audit",
     {"bench": "fault", "provenance": {},
      "records": [{"subject": "YOLOv8-n", "variant": "recovery",
                   "metric": "detected", "value": "yes", "unit": "bool"}]}),
]


def self_test() -> int:
    failures = 0
    for rule, rel, lines in SELF_TEST_CASES:
        findings = [f for check in FILE_CHECKS for f in check(rel, lines)]
        if not any(f.rule == rule for f in findings):
            print(f"self-test FAIL: rule {rule} did not fire on {lines!r}")
            failures += 1
    for rel, lines in SELF_TEST_CLEAN:
        findings = [f for check in FILE_CHECKS for f in check(rel, lines)]
        if findings:
            print(f"self-test FAIL: clean snippet {rel} raised "
                  f"{[str(f) for f in findings]}")
            failures += 1
    # Baseline rule: must fire on garbage and on a pre-record bespoke
    # shape, and pass on every committed (migrated) baseline.
    bad = check_bench_baselines([REPO / "scripts" / "ocb_lint.py"])
    if not bad:
        print("self-test FAIL: bench-baseline accepted a non-JSON file")
        failures += 1
    for name, data in SELF_TEST_BAD_BASELINES:
        if not record_file_problems(data):
            print(f"self-test FAIL: bench-baseline accepted {name}")
            failures += 1
    for path in sorted((REPO / "bench/baselines").glob("*.json")):
        for finding in check_bench_baselines([path]):
            print(f"self-test FAIL: migrated baseline raised {finding}")
            failures += 1
    # GitHub annotation escaping: a %, newline, colon or comma in a
    # finding must not break the ::error command syntax.
    if gh_data("a%\nb") != "a%25%0Ab" or gh_property("f:1,t") != "f%3A1%2Ct":
        print("self-test FAIL: github annotation escaping")
        failures += 1
    if failures == 0:
        print(f"self-test OK: {len(SELF_TEST_CASES)} firing cases, "
              f"{len(SELF_TEST_CLEAN)} clean cases")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", metavar="BASE",
                        help="lint only files changed since BASE "
                             "(git diff BASE)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on a known-bad "
                             "snippet and stays quiet on known-good ones")
    parser.add_argument("--format", choices=("text", "json", "github"),
                        default="text",
                        help="finding output: human text (default), a "
                             "JSON document, or GitHub ::error "
                             "annotations for CI")
    parser.add_argument("paths", nargs="*",
                        help="explicit files to lint (default: the tree)")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    if args.paths:
        files = [Path(p).resolve() for p in args.paths]
        with_baselines = False
    elif args.diff:
        files = diff_files(args.diff)
        # Diff mode still validates baselines when one changed.
        with_baselines = any(
            "bench/baselines" in f.as_posix() for f in files)
    else:
        files = tree_files()
        with_baselines = True

    findings = run_lint(files, with_baselines)
    emit(findings, files, args.format)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
