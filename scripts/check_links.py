#!/usr/bin/env python3
"""Markdown link checker for this repo's docs.

Scans README.md, ROADMAP.md, CHANGES.md, and docs/**.md for markdown links
and verifies that

  * relative file links resolve to an existing file or directory, and
  * fragment links into markdown files (foo.md#some-heading) match a
    heading in the target file (GitHub slug rules, simplified).

External links (http/https/mailto) are NOT fetched — CI must not flake on
the network — but their syntax is still validated. Exits non-zero listing
every broken link, so the docs tree cannot rot silently.

Usage: python3 scripts/check_links.py [repo_root]
"""

import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
IMAGE_RE = re.compile(r"\!\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")


def heading_slug(text: str) -> str:
    """GitHub-style anchor slug (simplified: ASCII-ish docs only)."""
    text = re.sub(r"[`*_~]", "", text.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def markdown_files(root: Path):
    files = [root / "README.md", root / "ROADMAP.md", root / "CHANGES.md"]
    files.extend(sorted((root / "docs").glob("**/*.md")))
    return [f for f in files if f.is_file()]


def extract_links(path: Path):
    """Yields (line_number, target) for links outside code fences."""
    in_fence = False
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if CODE_FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for regex in (LINK_RE, IMAGE_RE):
            for match in regex.finditer(line):
                yield lineno, match.group(1)


def collect_anchors(path: Path):
    anchors = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if match:
            anchors.add(heading_slug(match.group(1)))
    return anchors


def check(root: Path) -> int:
    errors = []
    anchor_cache = {}
    for md in markdown_files(root):
        for lineno, target in extract_links(md):
            where = f"{md.relative_to(root)}:{lineno}"
            if target.startswith(("http://", "https://", "mailto:")):
                continue  # not fetched; syntax already validated by the regex
            if target.startswith("#"):
                path, fragment = md, target[1:]
            else:
                raw, _, fragment = target.partition("#")
                path = (md.parent / raw).resolve()
                if not path.exists():
                    errors.append(f"{where}: broken link target '{target}'")
                    continue
            if fragment and path.suffix == ".md":
                if path not in anchor_cache:
                    anchor_cache[path] = collect_anchors(path)
                if fragment.lower() not in anchor_cache[path]:
                    errors.append(
                        f"{where}: no heading for anchor '#{fragment}' in "
                        f"'{path.name}'")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    checked = len(markdown_files(root))
    print(f"check_links: {checked} markdown files, {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    repo_root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        __file__).resolve().parent.parent
    sys.exit(check(repo_root))
