#!/usr/bin/env python3
"""Markdown link, experiment-coverage and reference-schema checker.

Three checks, all standard-library only:

1. Every relative link and image target in the repo's markdown
   documentation resolves to an existing file or directory, so refactors
   cannot silently break doc cross-references. External
   (http/https/mailto) links and pure intra-file anchors (#...) are
   skipped; anchors on relative links are stripped before the existence
   check.

2. Every `sapp_repro` experiment registered in src/repro/ (the
   `r.add({.name = "..."` sites reached from registry.cpp) is mentioned
   in docs/reproducing.md and has committed reference results
   (<name>.md + <name>.json) under docs/results/linux-x86_64/ — a new
   experiment cannot land undocumented or without reference numbers.
   Conversely, every reference result file and every row of that
   directory's index.md names a registered experiment, so deleting an
   experiment cannot leave its numbers behind.

3. Every committed reference result (docs/results/*/*.json) carries the
   `schema_version` that src/repro/result.hpp declares as kSchemaVersion,
   and its `environment` block has every key that validate_result_json in
   src/repro/result.cpp requires — a schema change cannot leave stale
   references behind.

Exit code: 0 = everything resolves, 1 = problems (each printed as
file:line: target or as a coverage message).
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

# Inline links/images: [text](target) / ![alt](target). Reference-style
# definitions: [label]: target
INLINE_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
REF_DEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)")
FENCE = re.compile(r"^\s*(```|~~~)")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")


def iter_markdown_files(root: Path):
    yield root / "README.md"
    yield from sorted((root / "docs").rglob("*.md"))


def check_file(md: Path, root: Path) -> list[str]:
    errors = []
    in_fence = False
    for lineno, line in enumerate(md.read_text(encoding="utf-8").splitlines(), 1):
        if FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        targets = INLINE_LINK.findall(line)
        ref = REF_DEF.match(line)
        if ref:
            targets.append(ref.group(1))
        for target in targets:
            if target.startswith(SKIP_PREFIXES):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            if path_part.startswith("/"):
                errors.append(
                    f"{md.relative_to(root)}:{lineno}: absolute path '{target}'"
                )
                continue
            resolved = (md.parent / path_part).resolve()
            try:
                resolved.relative_to(root.resolve())
            except ValueError:
                errors.append(
                    f"{md.relative_to(root)}:{lineno}: '{target}' escapes the repo"
                )
                continue
            if not resolved.exists():
                errors.append(f"{md.relative_to(root)}:{lineno}: broken link '{target}'")
    return errors


# Experiment registrations: `.name = "fig3_adaptive_table"` inside an
# `r.add({...})` in the exp_*.cpp / registry sources.
EXPERIMENT_NAME = re.compile(r"\.name\s*=\s*\"([A-Za-z0-9_]+)\"")
REFERENCE_RESULTS_DIR = "results/linux-x86_64"


def registered_experiments(root: Path) -> list[tuple[str, str]]:
    """(name, source-file) for every experiment registered in src/repro/."""
    found: list[tuple[str, str]] = []
    for src in sorted((root / "src" / "repro").glob("*.cpp")):
        for m in EXPERIMENT_NAME.finditer(src.read_text(encoding="utf-8")):
            found.append((m.group(1), str(src.relative_to(root))))
    return found


def check_experiment_coverage(
    root: Path, experiments: list[tuple[str, str]]
) -> list[str]:
    errors: list[str] = []
    if not experiments:
        return ["no registered experiments found under src/repro/ "
                "(registration idiom changed? update check_docs_links.py)"]
    reproducing = root / "docs" / "reproducing.md"
    reproducing_text = (
        reproducing.read_text(encoding="utf-8") if reproducing.exists() else ""
    )
    results = root / "docs" / REFERENCE_RESULTS_DIR
    for name, src in experiments:
        # A bare substring would pass vacuously for common-word names
        # ("overhead" appears all over the prose): require the runnable
        # form `sapp_repro <name>` or the backticked literal.
        if (f"sapp_repro {name}" not in reproducing_text
                and f"`{name}`" not in reproducing_text):
            errors.append(
                f"{src}: experiment '{name}' is not documented in "
                f"docs/reproducing.md (need `sapp_repro {name}`)"
            )
        for ext in ("md", "json"):
            if not (results / f"{name}.{ext}").exists():
                errors.append(
                    f"{src}: experiment '{name}' has no committed reference "
                    f"result docs/{REFERENCE_RESULTS_DIR}/{name}.{ext}"
                )
    errors.extend(check_orphaned_results(results, {n for n, _ in experiments}))
    return errors


# A row of the results index: `| <experiment> | <paper> | ...`.
INDEX_ROW = re.compile(r"^\|\s*([A-Za-z0-9_]+)\s*\|")


def check_orphaned_results(results: Path, registered: set[str]) -> list[str]:
    """Reference results (files or index rows) of unregistered experiments."""
    errors: list[str] = []
    rel = f"docs/{REFERENCE_RESULTS_DIR}"
    for f in sorted(results.glob("*")):
        if f.name == "index.md" or f.suffix not in (".md", ".json"):
            continue
        if f.stem not in registered:
            errors.append(f"{rel}/{f.name}: reference result of unregistered "
                          f"experiment '{f.stem}'")
    index = results / "index.md"
    if index.exists():
        lines = index.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            m = INDEX_ROW.match(line)
            if m and m.group(1) != "Experiment" and m.group(1) not in registered:
                errors.append(f"{rel}/index.md:{lineno}: row for unregistered "
                              f"experiment '{m.group(1)}'")
    return errors


# `inline constexpr int kSchemaVersion = 3;` in src/repro/result.hpp, and
# the environment key loop of validate_result_json in src/repro/result.cpp.
SCHEMA_VERSION = re.compile(r"kSchemaVersion\s*=\s*(\d+)\s*;")
ENV_KEYS = re.compile(
    r'doc\.find\("environment"\);\s*for\s*\(const char\*\s*key\s*:\s*\{([^}]*)\}')


def check_reference_schema(root: Path) -> list[str]:
    """Committed result JSON that the current validator would reject."""
    hpp = (root / "src" / "repro" / "result.hpp").read_text(encoding="utf-8")
    cpp = (root / "src" / "repro" / "result.cpp").read_text(encoding="utf-8")
    version = SCHEMA_VERSION.search(hpp)
    keys = ENV_KEYS.search(cpp)
    if version is None or keys is None:
        return ["cannot find kSchemaVersion in src/repro/result.hpp or the "
                "environment keys in src/repro/result.cpp (idiom changed? "
                "update check_docs_links.py)"]
    want = int(version.group(1))
    env_keys = re.findall(r'"([A-Za-z0-9_]+)"', keys.group(1))
    errors: list[str] = []
    for f in sorted((root / "docs" / "results").glob("*/*.json")):
        rel = f.relative_to(root)
        try:
            doc = json.loads(f.read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            errors.append(f"{rel}: not readable JSON ({e})")
            continue
        got = doc.get("schema_version")
        if got != want:
            errors.append(f"{rel}: schema_version {got}, but kSchemaVersion "
                          f"is {want} (regenerate with sapp_repro)")
        env = doc.get("environment")
        missing = [k for k in env_keys
                   if not isinstance(env, dict) or k not in env]
        if missing:
            errors.append(f"{rel}: environment lacks required key(s) "
                          f"{', '.join(missing)}")
    return errors


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    errors: list[str] = []
    checked = 0
    for md in iter_markdown_files(root):
        if not md.exists():
            errors.append(f"missing expected file: {md.relative_to(root)}")
            continue
        checked += 1
        errors.extend(check_file(md, root))
    experiments = registered_experiments(root)
    errors.extend(check_experiment_coverage(root, experiments))
    errors.extend(check_reference_schema(root))
    if errors:
        print(f"{len(errors)} problem(s) across {checked} markdown file(s) "
              f"and {len(experiments)} registered experiment(s):")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"OK: all relative links resolve across {checked} markdown file(s); "
          f"all {len(experiments)} registered experiments are documented in "
          f"docs/reproducing.md with committed reference results, and no "
          f"reference result is orphaned or behind the result schema")
    return 0


if __name__ == "__main__":
    sys.exit(main())
