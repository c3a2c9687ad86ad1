#!/usr/bin/env python3
"""Fails when libwnw holds an object that nothing outside the tests reaches.

Reads the object files of a CMake build tree with `nm`. A library object
(CMakeFiles/wnw.dir/src/**/*.o) counts as reached when at least one of the
symbols it defines is an undefined reference of another library object or of
a tool, bench or example object. Test objects do not count: a module only its
own tests call is code the system never runs.

The check works per object, not per symbol. A virtual method reached only
through a vtable never shows up as an undefined reference, but the object
that defines it is still reached through its constructor or vtable.

Weak and unique symbols (inline functions, template instantiations, vtables
of classes without a key function) are ignored on the defining side: every
object that uses one emits its own copy, so defining one reaches nothing.

Objects whose source file is gone (left behind in an incremental build
after a file was deleted) are skipped on both sides.

Exits 1 naming every unreached object, 0 when every object is reached.

Usage: python3 scripts/check_reachable.py <build_dir>
"""

import subprocess
import sys
from pathlib import Path

CONSUMER_DIRS = ("tools", "bench", "examples")
# nm type letters of a global symbol defined by the object itself, strong
# only: text, data, bss, read-only, small data and absolute.
STRONG_DEFINED = set("TDBRGSA")


def nm(obj: Path, *flags: str):
    """Yields (type, name) for each symbol line of `nm <flags> obj`."""
    out = subprocess.run(["nm", *flags, str(obj)], check=True,
                         capture_output=True, text=True).stdout
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 2:
            yield parts[-2], parts[-1]


def source_root(build_dir: Path) -> Path:
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1])
    raise SystemExit(f"no CMAKE_HOME_DIRECTORY in {build_dir}/CMakeCache.txt")


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    build_dir = Path(sys.argv[1])
    root = source_root(build_dir)
    cmake_files = build_dir / "CMakeFiles"
    lib_dir = cmake_files / "wnw.dir"

    def objects(target: Path, pattern: str):
        # foo.cc.o was compiled from <root>/<same relative path>/foo.cc.
        return [obj for obj in target.glob(pattern)
                if (root / obj.relative_to(target).with_suffix("")).is_file()]

    library = sorted(objects(lib_dir, "src/**/*.o"))
    if not library:
        print(f"no library objects under {lib_dir}: build first",
              file=sys.stderr)
        return 2
    consumers = [
        obj for target in cmake_files.glob("*.dir") if target != lib_dir
        for sub in CONSUMER_DIRS for obj in objects(target, f"{sub}/*.o")]

    # An object never lists a symbol it defines as undefined, so the union
    # over every object is the set referenced from outside each one.
    referenced = {name for obj in library + consumers
                  for _, name in nm(obj, "-u")}
    unreached = [
        obj.relative_to(lib_dir) for obj in library
        if not any(kind in STRONG_DEFINED and name in referenced
                   for kind, name in nm(obj, "-g", "--defined-only"))]

    print(f"{len(library)} library objects, {len(consumers)} tool/bench/"
          f"example objects, {len(unreached)} unreached")
    for obj in unreached:
        print(f"unreached: {obj}")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
