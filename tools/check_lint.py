#!/usr/bin/env python3
"""Project invariant linter: concurrency annotations and API discipline.

Enforces the repo-wide invariants that neither the compiler nor clang-tidy
guards (docs/static-analysis.md has the policy rationale). Fails (exit 1)
listing every violation:

  R1  No raw standard-library locking primitives (std::mutex,
      std::condition_variable, std::lock_guard, std::unique_lock,
      std::scoped_lock, std::shared_mutex, std::recursive_mutex) anywhere in
      src/, tools/, bench/ or tests/. All locking goes through the annotated
      wrappers in `src/util/thread_annotations.hpp`, so Clang Thread Safety
      Analysis sees every acquisition. (std::once_flag/std::call_once are
      fine — they are not lock-discipline state.)

  R2  Every non-pointer std::atomic declaration in src/ either carries a
      JANUS_GUARDED_BY annotation or a `// lint: unguarded(<reason>)` tag on
      the same or a directly preceding line. Atomics are where data races
      hide from the annotation system; the tag forces each one to state why
      lock-free access is correct. Pointer declarations (`std::atomic<T>*`)
      are views of someone else's atomic and are exempt.

  R3  No naked `new` expressions in src/, tools/ or bench/ — ownership goes
      through make_unique/make_shared/containers.

  R4  No std::stoi/stol/stoll/atoi/atol/atoll/atof/rand/srand in src/,
      tools/ or bench/. The strict parsers (`src/util/str.hpp`:
      parse_count/parse_int/parse_seconds) and the project RNG
      (`src/util/rng.hpp`) replace them; atoi and atof map garbage to 0
      silently, stoi accepts trailing junk, rand() is per-process hidden
      state.

  R5  Every bench main that emits a BENCH_* JSON document opens it through
      `bench/bench_args.hpp`:bench_json_header, so all documents share one
      "bench"/"seed"/provenance preamble (and one string escaper).

  R6  Every tests/test_*.cpp is listed in CMakeLists.txt — a test committed
      but not registered never runs, which reads as green forever.

  R7  Every NOLINT marker names its suppressed check — `NOLINT(<check>)` or
      `NOLINTNEXTLINE(<check>)` — and carries a one-line justification after
      a ':' on the same line. Blanket `NOLINT` with no check or no reason is
      a violation; suppressions must be auditable.

  R8  In src/synth/, solve_lm( is called only by `probe` and
      `fit_at_height` in janus.cpp and by the IPS construction in
      bounds.cpp. Every ladder fits through one of those paths, so a new
      loop cannot fork its own probe path or drop the run's cancel token.

Comment and string contents are stripped before R1/R3/R4/R8 matching, so prose
mentioning std::mutex does not trip the linter.

Usage: python3 tools/check_lint.py [--root DIR] [--self-test]
"""

import argparse
import re
import sys
from pathlib import Path

CPP_EXTENSIONS = (".cpp", ".hpp", ".h")

# R1: all raw locking primitives. \b keeps std::condition_variable_any (used
# only inside the whitelisted wrapper header) matched too — intentionally.
RAW_LOCK_RE = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b"
)
R1_WHITELIST = {
    "src/util/thread_annotations.hpp",  # the wrapper itself
    "src/util/thread_annotations.cpp",
}

ATOMIC_DECL_RE = re.compile(r"std::atomic<[^>]+>\s*(\*?)")
UNGUARDED_TAG_RE = re.compile(r"//\s*lint:\s*unguarded\([^)]+\)")

NAKED_NEW_RE = re.compile(r"\bnew\b\s*[A-Za-z_(:]")

BANNED_CALL_RE = re.compile(
    r"(?:std::)?\b(stoi|stol|stoll|stoul|stoull|atoi|atol|atoll|atof|srand)\s*\("
    r"|std::rand\s*\(|\brand\s*\(\s*\)"
)

SOLVE_LM_RE = re.compile(r"\bsolve_lm\s*\(")
# File -> the functions that may call solve_lm (None: any function).
R8_ALLOWED = {
    "src/synth/janus.cpp": {"probe", "fit_at_height"},
    "src/synth/bounds.cpp": None,
}
FUNCTION_HEAD_RE = re.compile(r"^[A-Za-z_].*?([A-Za-z_]\w*)\s*\(")

NOLINT_RE = re.compile(r"NOLINT(?:NEXTLINE|BEGIN|END)?")
NOLINT_OK_RE = re.compile(r"NOLINT(?:NEXTLINE)?\([a-zA-Z0-9_.\-, ]+\)\s*:\s*\S")


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments, string and char literals, preserving line breaks."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            out.append("".join(c if c == "\n" else " " for c in text[i:end]))
            i = end
        elif ch in "\"'":
            quote = ch
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            out.append(quote + " " * max(0, j - i - 1) + quote)
            i = min(n, j + 1)
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def check_raw_locks(rel: str, text: str) -> list[str]:
    if rel in R1_WHITELIST:
        return []
    errors = []
    for line_no, line in enumerate(strip_comments_and_strings(text).splitlines(), 1):
        m = RAW_LOCK_RE.search(line)
        if m:
            errors.append(
                f"{rel}:{line_no}: R1 raw std::{m.group(1)} — use the "
                "annotated wrappers in src/util/thread_annotations.hpp"
            )
    return errors


def check_atomics(rel: str, text: str) -> list[str]:
    if not rel.startswith("src/"):
        return []
    errors = []
    lines = strip_comments_and_strings(text).splitlines()
    raw_lines = text.splitlines()
    for idx, line in enumerate(lines):
        m = ATOMIC_DECL_RE.search(line)
        if m is None or m.group(1) == "*":
            continue
        if "template" in line or "#include" in line:
            continue
        window = raw_lines[max(0, idx - 2) : idx + 1]
        annotated = "JANUS_GUARDED_BY" in raw_lines[idx] or any(
            UNGUARDED_TAG_RE.search(w) for w in window
        )
        if not annotated:
            errors.append(
                f"{rel}:{idx + 1}: R2 std::atomic without JANUS_GUARDED_BY or "
                "a `// lint: unguarded(reason)` tag"
            )
    return errors


def check_naked_new(rel: str, text: str) -> list[str]:
    if rel.startswith("tests/"):
        return []
    errors = []
    for line_no, line in enumerate(strip_comments_and_strings(text).splitlines(), 1):
        if NAKED_NEW_RE.search(line):
            errors.append(
                f"{rel}:{line_no}: R3 naked new — use make_unique/make_shared"
            )
    return errors


def check_banned_calls(rel: str, text: str) -> list[str]:
    errors = []
    for line_no, line in enumerate(strip_comments_and_strings(text).splitlines(), 1):
        m = BANNED_CALL_RE.search(line)
        if m:
            what = m.group(1) or "rand"
            errors.append(
                f"{rel}:{line_no}: R4 {what}() — use parse_count/parse_int/"
                "parse_seconds (src/util/str.hpp) or the project RNG "
                "(src/util/rng.hpp)"
            )
    return errors


def check_bench_header(rel: str, text: str) -> list[str]:
    if not rel.startswith("bench/"):
        return []
    if not rel.endswith(".cpp") or "int main" not in text:
        return []
    emits_json = ('\\"bench\\"' in text or '"bench"' in text
                  or re.search(r"\bBENCH_\w+\.json", text) is not None)
    if emits_json and "bench_json_header" not in text:
        return [
            f"{rel}:1: R5 bench emits a BENCH_* JSON document without "
            "bench_json_header (bench/bench_args.hpp)"
        ]
    return []


def check_tests_registered(root: Path) -> list[str]:
    cmake = (root / "CMakeLists.txt").read_text(encoding="utf-8")
    errors = []
    for test in sorted((root / "tests").glob("test_*.cpp")):
        rel = f"tests/{test.name}"
        if rel not in cmake:
            errors.append(
                f"{rel}:1: R6 test file not registered in CMakeLists.txt — "
                "it will never run"
            )
    return errors


def check_nolint(rel: str, text: str) -> list[str]:
    errors = []
    for line_no, line in enumerate(text.splitlines(), 1):
        for m in NOLINT_RE.finditer(line):
            tail = line[m.start() :]
            if not NOLINT_OK_RE.match(tail):
                errors.append(
                    f"{rel}:{line_no}: R7 NOLINT without a named check and a "
                    "': <justification>' — write NOLINT(<check>): why"
                )
    return errors


def check_probe_paths(rel: str, text: str) -> list[str]:
    if not rel.startswith("src/synth/"):
        return []
    allowed = R8_ALLOWED.get(rel, set())
    if allowed is None:
        return []
    errors = []
    function = None
    for line_no, line in enumerate(strip_comments_and_strings(text).splitlines(), 1):
        # A definition starts in column 0; its name is the identifier
        # before the first '(' (namespace and using lines have none).
        head = FUNCTION_HEAD_RE.match(line)
        if head:
            function = head.group(1)
        if SOLVE_LM_RE.search(line) and function not in allowed:
            errors.append(
                f"{rel}:{line_no}: R8 solve_lm( outside probe/fit_at_height "
                "(src/synth/janus.cpp) — fit through fit_at_height"
            )
    return errors


PER_FILE_CHECKS = [
    check_raw_locks,
    check_atomics,
    check_naked_new,
    check_banned_calls,
    check_bench_header,
    check_nolint,
    check_probe_paths,
]


def lint_tree(root: Path) -> list[str]:
    errors = []
    for top in ("src", "tools", "bench", "tests"):
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in CPP_EXTENSIONS:
                continue
            rel = path.relative_to(root).as_posix()
            text = path.read_text(encoding="utf-8")
            for check in PER_FILE_CHECKS:
                errors.extend(check(rel, text))
    errors.extend(check_tests_registered(root))
    return errors


# --- self-test ---------------------------------------------------------------

SELF_TEST_FIXTURES = [
    # (description, check, rel path, content, expect_violation)
    (
        "unannotated raw std::mutex",
        check_raw_locks,
        "src/fixture.hpp",
        "#include <mutex>\nclass c { std::mutex m_; };\n",
        True,
    ),
    (
        "raw lock in a comment only",
        check_raw_locks,
        "src/fixture.hpp",
        "// prose mentioning std::mutex is fine\nint x;\n",
        False,
    ),
    (
        "wrapper header may use std::mutex",
        check_raw_locks,
        "src/util/thread_annotations.hpp",
        "class mutex { std::mutex m_; };\n",
        False,
    ),
    (
        "untagged atomic member",
        check_atomics,
        "src/fixture.hpp",
        "struct s { std::atomic<int> n{0}; };\n",
        True,
    ),
    (
        "tagged atomic member",
        check_atomics,
        "src/fixture.hpp",
        "// lint: unguarded(test fixture)\nstd::atomic<int> n{0};\n",
        False,
    ),
    (
        "atomic pointer view",
        check_atomics,
        "src/fixture.hpp",
        "const std::atomic<bool>* stop_ = nullptr;\n",
        False,
    ),
    (
        "naked new",
        check_naked_new,
        "src/fixture.cpp",
        "int* p = new int(3);\n",
        True,
    ),
    (
        "new inside an identifier",
        check_naked_new,
        "src/fixture.cpp",
        "int new_upper_bound = 0;\n",
        False,
    ),
    (
        "std::stoi",
        check_banned_calls,
        "tools/fixture.cpp",
        "int n = std::stoi(argv[1]);\n",
        True,
    ),
    (
        "atoi",
        check_banned_calls,
        "tools/fixture.cpp",
        "int n = atoi(argv[1]);\n",
        True,
    ),
    (
        "std::atof",
        check_banned_calls,
        "tools/fixture.cpp",
        "double t = std::atof(argv[1]);\n",
        True,
    ),
    (
        "parse_seconds is fine",
        check_banned_calls,
        "tools/fixture.cpp",
        "auto t = janus::parse_seconds(argv[1], 0.0, 60.0);\n",
        False,
    ),
    (
        "parse_count is fine",
        check_banned_calls,
        "tools/fixture.cpp",
        "auto n = janus::parse_count(argv[1], 0, 9);\n",
        False,
    ),
    (
        "bench JSON without the shared header",
        check_bench_header,
        "bench/bench_fixture.cpp",
        'int main() { printf("{\\"bench\\": \\"x\\"}"); }\n',
        True,
    ),
    (
        "bench JSON through the shared header",
        check_bench_header,
        "bench/bench_fixture.cpp",
        "int main() { s += bench_json_header(\"x\", 0); }\n// BENCH_x.json\n",
        False,
    ),
    (
        "blanket NOLINT",
        check_nolint,
        "src/fixture.cpp",
        "do_thing();  // NOLINT\n",
        True,
    ),
    (
        "justified NOLINT",
        check_nolint,
        "src/fixture.cpp",
        "do_thing();  // NOLINT(bugprone-branch-clone): arms differ by docs\n",
        False,
    ),
    (
        "a synth loop with its own solve_lm",
        check_probe_paths,
        "src/synth/janus_mf.cpp",
        "void sweep() {\n  const auto r = lm::solve_lm(t, info, o, budget);\n}\n",
        True,
    ),
    (
        "a second solve_lm in janus.cpp outside the probe paths",
        check_probe_paths,
        "src/synth/janus.cpp",
        "std::optional<bound_solution> janus_synthesizer::divide(\n"
        "    const target_spec& t) {\n  lm::solve_lm(t, info, o, budget);\n}\n",
        True,
    ),
    (
        "fit_at_height may call solve_lm",
        check_probe_paths,
        "src/synth/janus.cpp",
        "std::optional<lattice_mapping> fit_at_height(\n    int rows) {\n"
        "  const auto solve = [&](int cols) {\n"
        "    return lm::solve_lm(t, info, o, budget);\n  };\n}\n",
        False,
    ),
    (
        "solve_lm in a comment",
        check_probe_paths,
        "src/synth/baselines.cpp",
        "// probes go through fit_at_height, never solve_lm( directly\nint x;\n",
        False,
    ),
]


def run_self_test(root: Path) -> int:
    failures = []
    for description, check, rel, content, expect in SELF_TEST_FIXTURES:
        got = bool(check(rel, content))
        if got != expect:
            failures.append(
                f"self-test '{description}': expected "
                f"{'a violation' if expect else 'clean'}, got "
                f"{'a violation' if got else 'clean'}"
            )
    # The registration rule needs a tree; assert it fires on a fabricated
    # unregistered test name and stays quiet on the real tree.
    real = check_tests_registered(root)
    if real:
        failures.append(f"self-test: real tree has unregistered tests: {real}")
    for failure in failures:
        print(failure, file=sys.stderr)
    print(
        f"check_lint self-test: {len(SELF_TEST_FIXTURES)} fixtures, "
        f"{len(failures)} failures"
    )
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=Path(__file__).resolve().parent.parent,
                        type=Path)
    parser.add_argument("--self-test", action="store_true",
                        help="verify the rules fire on broken fixtures")
    args = parser.parse_args()
    root = args.root.resolve()
    if args.self_test:
        return run_self_test(root)
    errors = lint_tree(root)
    for error in errors:
        print(error, file=sys.stderr)
    checked = sum(
        1
        for top in ("src", "tools", "bench", "tests")
        for p in (root / top).rglob("*")
        if p.suffix in CPP_EXTENSIONS
    )
    print(f"check_lint: {checked} files checked, {len(errors)} violations")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
