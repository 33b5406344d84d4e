#!/usr/bin/env python3
"""unreached.py — list the src/ functions that no shipped binary keeps.

A function in a src/ library earns its place by running in something
that ships: mecoff_cli, the benches, the examples or the perfbench
harness. This check builds those roots at -O0 with one section per
function and links them with --gc-sections, so nothing is inlined and
the linker drops every function no root can reach. It then lists each
mecoff:: function that a src/ library defines and no root keeps.

Usage:
    unreached.py [--build-dir DIR] [--jobs N] [--allow FILE]
    unreached.py --defined FILE --kept FILE [--allow FILE]

The first form configures <build-dir> (default build-unreached/ at the
repository root, this file's parent directory) with

    -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
    -DCMAKE_CXX_FLAGS=-ffunction-sections
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    -DCMAKE_PROJECT_mecoff_INCLUDE=<root>/perfbench/attach.cmake

reads the target list from CMake's file API, builds the roots (every
executable under tools/, bench/ and examples/, plus perfbench_harness;
tests and fuzz harnesses are not roots), and compares `nm -C` of the
src/ libraries against `nm -C` of the roots. The second form skips the
build and reads the two `nm -C` listings from files (the self-test's
fixtures).

A function is named without its parameter list or ABI tag, so overloads
share one name, and a lambda counts as the function it is written in.
Only strong definitions count (nm types T and t): inline and template
code from headers is outside the scan, and so is every std::
instantiation.

The allow-list (default tools/unreached_allow.txt) holds one entry a
line, `<function name> -- <reason>`; a line starting with `#` is a
comment.

Exit codes: 0 pass; 1 an unreached function is not allow-listed, or an
allow-list entry is reached by a root or no longer defined; 2 usage or
input error (a malformed allow-list or a failed build included).
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT_DIRS = ("tools", "bench", "examples")
EXTRA_ROOTS = ("perfbench_harness",)

# `nm -C` symbol line: address, type, demangled name.
_NM_LINE = re.compile(r"^[0-9a-fA-F]*\s+([A-Za-z])\s+(.+)$")
_ABI_TAG = re.compile(r"\[abi:[^\]]*\]")
_ANON = "(anonymous namespace)"
_ANON_TOKEN = "{anonymous}"
# The operator token after `operator`, so its parentheses and angle
# brackets are not read as a parameter list or template arguments.
_OPERATOR = re.compile(
    r"operator(\(\)|\[\]|<=>|<<=|>>=|<<|>>|<=|>=|->\*?|&&|\|\||\+\+|--"
    r"|[-+*/%^&|~!=<>,]=?|\s+[^(]+)")


def function_name(symbol):
    """`ns::f(int)::{lambda()#1}::operator()() const` -> `ns::f`.

    Returns the qualified name before the first top-level parameter
    list, without a function template's return type or any ABI tag.
    """
    text = _ABI_TAG.sub("", symbol).replace(_ANON, _ANON_TOKEN)
    depth = 0
    start = 0
    i = 0
    while i < len(text):
        if text.startswith("operator", i) and (i == 0 or text[i - 1] == ":"):
            match = _OPERATOR.match(text, i)
            if match:
                i = match.end()
                continue
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == " " and depth == 0:
            start = i + 1
        elif c == "(" and depth == 0:
            break
        i += 1
    return text[start:i].replace(_ANON_TOKEN, _ANON)


def parse_nm(text, strong_only):
    """`nm -C` output -> {symbol: object file it was listed under}."""
    symbols = {}
    obj = ""
    for line in text.splitlines():
        if line.endswith(":") and not _NM_LINE.match(line):
            obj = line[:-1]
            continue
        match = _NM_LINE.match(line)
        if not match:
            continue
        kind, symbol = match.groups()
        if strong_only and kind not in "Tt":
            continue
        symbols.setdefault(symbol, obj)
    return symbols


def unreached_functions(defined_text, kept_text):
    """Unreached mecoff:: functions and every defined function name.

    Returns ({name: sorted objects}, {name}). A name is unreached when
    any of its overloads is: an overload no root keeps is dead code even
    if its siblings run.
    """
    defined = parse_nm(defined_text, strong_only=True)
    kept = parse_nm(kept_text, strong_only=False)
    unreached = {}
    for symbol, obj in defined.items():
        name = function_name(symbol)
        if name.startswith("mecoff::") and symbol not in kept:
            unreached.setdefault(name, set()).add(obj)
    defined_names = {function_name(s) for s in defined}
    return {n: sorted(o) for n, o in unreached.items()}, defined_names


def read_allow_list(path):
    """{name: reason}; raises ValueError on a malformed line."""
    entries = {}
    with open(path) as f:
        for number, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, reason = line.partition(" -- ")
            name, reason = name.strip(), reason.strip()
            if not sep or not name or not reason:
                raise ValueError(f"{path}:{number}: expected "
                                 f"'<function name> -- <reason>'")
            if name in entries:
                raise ValueError(f"{path}:{number}: {name} listed twice")
            entries[name] = reason
    return entries


def check(unreached, defined_names, allow):
    """Failure lines: unlisted unreached functions, then stale entries."""
    failures = []
    for name in sorted(unreached):
        if name not in allow:
            where = ", ".join(unreached[name])
            failures.append(f"unreached and not allow-listed: {name}"
                            + (f" ({where})" if where else ""))
    for name in sorted(allow):
        if name in unreached:
            continue
        if name in defined_names:
            failures.append(f"stale allow-list entry: {name} is reached "
                            f"by a root")
        else:
            failures.append(f"stale allow-list entry: {name} is no longer "
                            f"defined in a src/ library")
    return failures


def run(cmd, what):
    """Run `cmd` quietly; its stdout, or RuntimeError with the tail."""
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        tail = "\n".join((out.stdout + out.stderr).splitlines()[-40:])
        raise RuntimeError(f"{what} failed:\n{tail}")
    return out.stdout


def file_api_targets(build_dir):
    """[(name, type, source dir, [artifact paths])] from the codemodel."""
    reply = os.path.join(build_dir, ".cmake", "api", "v1", "reply")
    index = sorted(f for f in os.listdir(reply) if f.startswith("index-"))
    with open(os.path.join(reply, index[-1])) as f:
        codemodel_file = json.load(f)["reply"]["codemodel-v2"]["jsonFile"]
    with open(os.path.join(reply, codemodel_file)) as f:
        config = json.load(f)["configurations"][0]
    targets = []
    for entry in config["targets"]:
        with open(os.path.join(reply, entry["jsonFile"])) as f:
            target = json.load(f)
        artifacts = [os.path.join(build_dir, a["path"])
                     for a in target.get("artifacts", [])]
        targets.append((target["name"], target["type"],
                        target["paths"]["source"], artifacts))
    return targets


def under(source, dirs):
    return any(source == d or source.startswith(d + "/") for d in dirs)


def build_and_list(root, build_dir, jobs):
    """Configure, build the roots; return (defined nm text, kept nm text)."""
    query = os.path.join(build_dir, ".cmake", "api", "v1", "query")
    os.makedirs(query, exist_ok=True)
    open(os.path.join(query, "codemodel-v2"), "w").close()
    configure = [
        "cmake", "-S", root, "-B", build_dir,
        "-DCMAKE_BUILD_TYPE=Debug",
        "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
        "-DCMAKE_CXX_FLAGS=-ffunction-sections",
        "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
        "-DCMAKE_PROJECT_mecoff_INCLUDE="
        + os.path.join(root, "perfbench", "attach.cmake"),
    ]
    run(configure, "cmake configure")
    targets = file_api_targets(build_dir)
    roots = [t for t in targets if t[1] == "EXECUTABLE"
             and (under(t[2], ROOT_DIRS) or t[0] in EXTRA_ROOTS)]
    libraries = [t for t in targets if t[1] == "STATIC_LIBRARY"
                 and under(t[2], ("src",))]
    missing = set(EXTRA_ROOTS) - {t[0] for t in roots}
    if missing:
        raise RuntimeError(f"root target(s) not configured: "
                           f"{', '.join(sorted(missing))}")
    build = ["cmake", "--build", build_dir, "-j", str(jobs), "--target"]
    build += [t[0] for t in roots]
    run(build, "building the roots")
    print(f"unreached: {len(roots)} roots, {len(libraries)} src/ libraries")
    nm = ["nm", "-C", "--defined-only"]
    defined = run(nm + [a for t in libraries for a in t[3]], "nm")
    kept = run(nm + [a for t in roots for a in t[3]], "nm")
    return defined, kept


def main(argv=None):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(
        description="List the src/ functions no shipped binary keeps.")
    parser.add_argument("--build-dir",
                        default=os.path.join(root, "build-unreached"),
                        help="scan build directory "
                             "(default: build-unreached/ at the root)")
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1))
    parser.add_argument("--allow",
                        default=os.path.join(root, "tools",
                                             "unreached_allow.txt"),
                        help="allow-list (default: tools/unreached_allow.txt)")
    parser.add_argument("--defined",
                        help="`nm -C` listing of the src/ libraries "
                             "(skips the build; needs --kept)")
    parser.add_argument("--kept", help="`nm -C` listing of the roots")
    args = parser.parse_args(argv)
    try:
        allow = read_allow_list(args.allow)
        if args.defined or args.kept:
            if not (args.defined and args.kept):
                parser.error("--defined and --kept go together")
            with open(args.defined) as f:
                defined_text = f.read()
            with open(args.kept) as f:
                kept_text = f.read()
        else:
            defined_text, kept_text = build_and_list(
                root, os.path.abspath(args.build_dir), args.jobs)
    except (OSError, ValueError, RuntimeError) as err:
        print(f"unreached: {err}", file=sys.stderr)
        return 2
    unreached, defined_names = unreached_functions(defined_text, kept_text)
    failures = check(unreached, defined_names, allow)
    listed = sum(1 for n in unreached if n in allow)
    print(f"unreached: {len(unreached)} mecoff:: functions no root keeps, "
          f"{listed} allow-listed ({len(allow)} entries)")
    for line in failures:
        print(f"  FAIL {line}")
    if failures:
        print(f"unreached: FAIL ({len(failures)} problem(s))")
        return 1
    print("unreached: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
