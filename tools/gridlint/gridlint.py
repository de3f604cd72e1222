#!/usr/bin/env python3
"""gridlint: determinism & hot-path hygiene analyzer for the grid stack.

Two engines over one rule registry (tools/gridlint/gridlintlib):

  regex   line-oriented scan of stripped text — runs anywhere, no deps;
  ast     libclang (clang.cindex) over compile_commands.json — resolves
          types, storage, captures, and [[clang::annotate]] attributes.
          Its output is the union of the regex pass and the AST rules.

Usage:
  gridlint.py [files...]            scan the tree (or just `files`)
  gridlint.py --engine ast          require the AST engine (CI lint job)
  gridlint.py --json                machine-readable findings on stdout
  gridlint.py --selftest            prove every rule against the fixtures

Exit codes: 0 clean, 1 findings, 2 infrastructure error.

Suppressions: `// gridlint: allow(<rule>)` on the finding's line or the
line above, or a justified entry in gridlintlib/registry.py:ALLOW.  An
ALLOW entry naming a file that does not exist under --root fails the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from gridlintlib import ast_engine, fixtures, registry, regex_engine  # noqa: E402


def repo_root() -> str:
    return os.path.realpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))


def load_corpus(root: str) -> dict[str, str]:
    raw_by_path: dict[str, str] = {}
    for top in registry.SOURCE_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, _, filenames in os.walk(base):
            for fn in sorted(filenames):
                if not fn.endswith(registry.SOURCE_EXTS):
                    continue
                full = os.path.join(dirpath, fn)
                rel = os.path.relpath(full, root).replace(os.sep, "/")
                with open(full, encoding="utf-8") as f:
                    raw_by_path[rel] = f.read()
    return raw_by_path


def normalize_targets(root: str, files, corpus) -> list[str]:
    """Maps user-supplied paths to corpus-relative ones, dropping files
    gridlint does not cover (non-C++, tests, generated)."""
    targets = []
    for f in files:
        rel = os.path.relpath(os.path.realpath(f), root).replace(os.sep, "/")
        if rel in corpus:
            targets.append(rel)
    return targets


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="gridlint", description=__doc__)
    ap.add_argument("files", nargs="*",
                    help="restrict findings to these files (default: tree)")
    ap.add_argument("--root", default=repo_root())
    ap.add_argument("--engine", choices=("auto", "regex", "ast"),
                    default="auto",
                    help="auto = AST when libclang + compile_commands.json "
                         "are available, else regex (default)")
    ap.add_argument("--build-dir", default=None,
                    help="directory holding compile_commands.json "
                         "(default: <root>/build)")
    ap.add_argument("--json", action="store_true", dest="as_json",
                    help="emit findings as JSON on stdout")
    ap.add_argument("--selftest", action="store_true",
                    help="verify every rule against tests/lint_fixtures")
    args = ap.parse_args(argv)
    root = os.path.realpath(args.root)

    if args.selftest:
        return fixtures.run_selftest(root, engine=args.engine)

    corpus = load_corpus(root)
    if not corpus:
        print(f"gridlint: no sources under {root}", file=sys.stderr)
        return 2
    stale = registry.stale_allows(root)
    for path, rule in stale:
        print(f"gridlint: stale ALLOW entry ({path}, {rule}): no such file",
              file=sys.stderr)
    if stale:
        return 1
    paths = None
    if args.files:
        paths = normalize_targets(root, args.files, corpus)
        if not paths:
            if args.as_json:
                print(json.dumps({"engine": "none", "findings": []}))
            else:
                print("gridlint: no coverable files among the arguments")
            return 0

    rx = regex_engine.RegexEngine(corpus)
    findings = {f.key(): f for f in rx.scan(paths)}
    engine_used = "regex"

    if args.engine in ("auto", "ast"):
        cx = ast_engine.load_cindex()
        build_dir = args.build_dir or os.path.join(root, "build")
        db_ok = os.path.isfile(
            os.path.join(build_dir, "compile_commands.json"))
        if cx is None or not db_ok:
            why = ("libclang unavailable" if cx is None
                   else f"no compile_commands.json in {build_dir}")
            if args.engine == "ast":
                print(f"gridlint: --engine ast requested but {why}",
                      file=sys.stderr)
                return 2
            print(f"gridlint: {why} — regex engine only", file=sys.stderr)
        else:
            ast = ast_engine.AstEngine(cx, root, build_dir)
            try:
                for f in ast.scan(paths):
                    findings.setdefault(f.key(), f)
            except (FileNotFoundError, RuntimeError) as exc:
                print(f"gridlint: {exc}", file=sys.stderr)
                return 2
            engine_used = "ast"
            for msg in ast.parse_failures:
                print(f"gridlint: warning: {msg}", file=sys.stderr)

    ordered = sorted(findings.values(),
                     key=lambda f: (f.path, f.line, f.rule))
    if args.as_json:
        print(json.dumps({
            "engine": engine_used,
            "root": root,
            "findings": [{
                "path": f.path, "line": f.line, "rule": f.rule,
                "snippet": f.snippet,
                "message": registry.RULES[f.rule].message,
            } for f in ordered],
        }, indent=2))
    else:
        for f in ordered:
            print(f"{f.path}:{f.line}: [{f.rule}] "
                  f"{registry.RULES[f.rule].message}")
            if f.snippet:
                print(f"    {f.snippet}")
        if ordered:
            print(f"gridlint: {len(ordered)} finding(s) ({engine_used})")
        else:
            scanned = len(paths) if paths is not None else len(corpus)
            print(f"gridlint: clean ({scanned} files, {engine_used})")
    return 1 if ordered else 0


if __name__ == "__main__":
    sys.exit(main())
