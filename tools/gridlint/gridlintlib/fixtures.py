"""Selftest harness: every rule is proven by fixtures, under both engines.

Each file in tests/lint_fixtures declares what the analyzer must report
for it:

  // gridlint-fixture: <pretend-path> <rule,rule|->

is the expectation for the regex engine (`-` = clean), scanning the
fixture as if it lived at <pretend-path>.  An optional second directive

  // gridlint-fixture-ast: <rule,rule|->
  // gridlint-fixture-ast: skip

overrides the expectation for the AST engine, whose output is the union
of the regex pass and the AST rules (so AST expectations are supersets
unless a rule is regex-only).  `skip` exempts a fixture from the AST half
(e.g. deliberately ill-formed text).  Without the directive the AST
expectation defaults to the regex one.

The harness also fails if any rule in the registry is never exercised by
a fixture under any engine — a rule without a firing fixture is dead
weight we cannot trust.

The stale-exemption check has its own fixture: tests/lint_fixtures/
stale_allow is scanned as a --root against the ALLOW keys listed in its
allow.txt, each marked `live` (the file exists) or `stale`; the check must
report exactly the stale ones.

When libclang is unavailable the AST half is skipped with a notice and
the selftest passes on the regex half alone; CI installs libclang so the
full matrix gates merges there.
"""

from __future__ import annotations

import os
import re
import sys

from . import ast_engine, registry, regex_engine, textprep

FIXTURE_RE = re.compile(r"^//\s*gridlint-fixture:\s*(\S+)\s+(\S+)", re.M)
FIXTURE_AST_RE = re.compile(r"^//\s*gridlint-fixture-ast:\s*(\S+)", re.M)


def _expected(token: str) -> set[str]:
    return set() if token == "-" else set(token.split(","))


def _regex_fired(pretend_path: str, raw: str) -> set[str]:
    stripped = textprep.strip_comments_and_strings(raw)
    names = regex_engine.collect_unordered_names({pretend_path: stripped})
    hot = textprep.file_declares_hot(stripped)
    return {f.rule for f in regex_engine.scan_file(
        pretend_path, raw, stripped, names, hot)}


def _stale_allow_failures(stale_root: str) -> list[str]:
    probe: dict[tuple[str, str], str] = {}
    expected = []
    with open(os.path.join(stale_root, "allow.txt"), encoding="utf-8") as f:
        for line in f:
            if not line.strip() or line.startswith("#"):
                continue
            path, rule, verdict = line.split()
            probe[(path, rule)] = verdict
            if verdict == "stale":
                expected.append((path, rule))
    got = registry.stale_allows(stale_root, probe)
    if not expected or got != sorted(expected):
        return [f"stale_allow: expected {sorted(expected)}, got {got}"]
    return []


def run_selftest(root: str, engine: str = "auto") -> int:
    fixture_dir = os.path.join(root, "tests", "lint_fixtures")
    if not os.path.isdir(fixture_dir):
        print(f"gridlint --selftest: missing {fixture_dir}", file=sys.stderr)
        return 2

    cx = None
    if engine in ("auto", "ast"):
        cx = ast_engine.load_cindex()
        if cx is None:
            if engine == "ast":
                print("gridlint --selftest: --engine ast requested but "
                      "libclang is unavailable", file=sys.stderr)
                return 2
            print("gridlint --selftest: libclang unavailable — "
                  "AST half skipped (regex half only)")
    ast = (ast_engine.AstEngine(cx, root) if cx is not None else None)

    failures: list[str] = []
    checked = 0
    exercised: set[str] = set()

    for name in sorted(os.listdir(fixture_dir)):
        if not name.endswith(registry.SOURCE_EXTS):
            continue
        full = os.path.join(fixture_dir, name)
        with open(full, encoding="utf-8") as f:
            raw = f.read()
        header = FIXTURE_RE.search(raw)
        if not header:
            failures.append(f"{name}: missing '// gridlint-fixture:' header")
            continue
        pretend_path, token = header.group(1), header.group(2)
        expected_regex = _expected(token)
        ast_m = FIXTURE_AST_RE.search(raw)
        ast_token = ast_m.group(1) if ast_m else token
        checked += 1

        fired_regex = _regex_fired(pretend_path, raw)
        exercised.update(expected_regex)
        if fired_regex != expected_regex:
            failures.append(
                f"{name} (as {pretend_path}, regex): expected "
                f"{sorted(expected_regex) or 'nothing'}, got "
                f"{sorted(fired_regex) or 'nothing'}")

        if ast is None or ast_token == "skip":
            continue
        expected_ast = _expected(ast_token)
        exercised.update(expected_ast)
        try:
            ast_findings = ast.scan_single(full, pretend_path)
        except Exception as exc:
            failures.append(f"{name} (as {pretend_path}, ast): {exc}")
            continue
        fired_ast = fired_regex | {f.rule for f in ast_findings}
        if fired_ast != expected_ast:
            failures.append(
                f"{name} (as {pretend_path}, ast union): expected "
                f"{sorted(expected_ast) or 'nothing'}, got "
                f"{sorted(fired_ast) or 'nothing'}")

    if checked == 0:
        failures.append("no fixtures found")
    failures.extend(_stale_allow_failures(
        os.path.join(fixture_dir, "stale_allow")))
    for rid in sorted(registry.RULES):
        if rid in exercised:
            continue
        if ast is None and registry.RULES[rid].engines == "ast":
            continue  # provable only with libclang present
        failures.append(f"rule '{rid}' has no firing fixture")

    mode = "regex+ast" if ast is not None else "regex only"
    if failures:
        for f in failures:
            print(f"gridlint --selftest: FAIL {f}")
        print(f"gridlint --selftest: {len(failures)} failure(s) over "
              f"{checked} fixtures ({mode})")
        return 1
    print(f"gridlint --selftest: OK ({checked} fixtures, {mode})")
    return 0
