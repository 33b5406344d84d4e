#!/usr/bin/env python3
"""Self-test for tools/unreached.py.

Runs the check on fixture `nm -C` listings (no build): a new unreached
function fails and is named, a stale allow-list entry fails, and an
allow-listed function passes. Also pins how symbols are named (lambdas,
overloads, operators, anonymous namespaces, ABI tags) and the exit-2
diagnostics. Registered as the `unreached_selftest` ctest (label:
lint); stdlib only, all fixtures built in a temp dir.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
TOOL = os.path.join(ROOT, "tools", "unreached.py")
sys.path.insert(0, os.path.dirname(TOOL))
sys.dont_write_bytecode = True  # leave no __pycache__ in tools/
import unreached  # noqa: E402

# `nm -C --defined-only` of two src/ archives.
DEFINED = """
solver.cpp.o:
0000000000000000 T mecoff::mec::solve(mecoff::mec::System const&)
0000000000000000 t mecoff::mec::solve(mecoff::mec::System const&)::{lambda(int)#1}::operator()(int) const
0000000000000000 T mecoff::mec::Cache::seam() const
0000000000000000 T mecoff::mec::Cache::used_seam()
0000000000000000 t mecoff::mec::(anonymous namespace)::helper(double)
0000000000000000 W mecoff::mec::Cache::size() const
0000000000000000 T std::vector<mecoff::mec::Part, std::allocator<mecoff::mec::Part> >::~vector()
0000000000000000 D mecoff::mec::kTable

text.cpp.o:
0000000000000000 T mecoff::to_text[abi:cxx11](int)
0000000000000000 T mecoff::to_text[abi:cxx11](double)
0000000000000000 T mecoff::Matrix::operator()(unsigned long, unsigned long) const
"""

# `nm -C --defined-only` of the roots.
KEPT = """
0000000000401000 T main
0000000000401100 T mecoff::mec::solve(mecoff::mec::System const&)
0000000000401200 t mecoff::mec::solve(mecoff::mec::System const&)::{lambda(int)#1}::operator()(int) const
0000000000401300 t mecoff::mec::(anonymous namespace)::helper(double)
0000000000401400 T mecoff::mec::Cache::used_seam()
0000000000401500 T mecoff::to_text[abi:cxx11](int)
0000000000401600 T mecoff::Matrix::operator()(unsigned long, unsigned long) const
"""

ALLOW = """# seams
mecoff::mec::Cache::seam -- the tests read the cache through it
mecoff::to_text -- the round-trip oracle of the parser
"""


def run_tool(args):
    return subprocess.run([sys.executable, TOOL] + args,
                          capture_output=True, text=True, check=False)


def check(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"  [{status}] {name}" + (f": {detail}" if detail and not ok
                                    else ""))
    return ok


def main():
    failures = 0
    names = {
        "mecoff::mec::solve(mecoff::mec::System const&)::{lambda(int)#1}"
        "::operator()(int) const": "mecoff::mec::solve",
        "mecoff::to_text[abi:cxx11](int)": "mecoff::to_text",
        "mecoff::Matrix::operator()(unsigned long, unsigned long) const":
            "mecoff::Matrix::operator()",
        "mecoff::mec::(anonymous namespace)::helper(double)":
            "mecoff::mec::(anonymous namespace)::helper",
        "std::pair<int, int> mecoff::split<int>(std::vector<int, "
        "std::allocator<int> > const&)": "mecoff::split<int>",
        "mecoff::Bits::operator<(mecoff::Bits const&) const":
            "mecoff::Bits::operator<",
    }
    for symbol, expected in names.items():
        got = unreached.function_name(symbol)
        failures += not check(f"names {expected}", got == expected,
                              f"{symbol!r} -> {got!r}")

    with tempfile.TemporaryDirectory() as tmp:
        def write(rel, text):
            path = os.path.join(tmp, rel)
            with open(path, "w") as out:
                out.write(text)
            return path

        defined = write("defined.txt", DEFINED)
        kept = write("kept.txt", KEPT)
        allow = write("allow.txt", ALLOW)

        # Allow-listed functions pass: Cache::seam is never kept and
        # to_text(double) is the one overload no root keeps.
        p = run_tool(["--defined", defined, "--kept", kept, "--allow", allow])
        failures += not check("allow-listed functions pass", p.returncode == 0,
                              p.stdout + p.stderr)
        failures += not check("the count names both", "2 mecoff:: functions"
                              in p.stdout, p.stdout)

        # A new function no root keeps fails, and the output names it.
        grown = write("grown.txt", DEFINED + (
            "0000000000000000 T mecoff::mec::Cache::forgotten(int)\n"))
        p = run_tool(["--defined", grown, "--kept", kept, "--allow", allow])
        failures += not check("a new unreached function fails",
                              p.returncode == 1, p.stdout + p.stderr)
        failures += not check(
            "the failure names it",
            "unreached and not allow-listed: mecoff::mec::Cache::forgotten"
            in p.stdout, p.stdout)

        # An entry for a function a root reaches is stale.
        reached = write("reached.txt", ALLOW + (
            "mecoff::mec::Cache::used_seam -- no longer true\n"))
        p = run_tool(["--defined", defined, "--kept", kept, "--allow",
                      reached])
        failures += not check("a reached allow-list entry fails",
                              p.returncode == 1, p.stdout + p.stderr)
        failures += not check(
            "the failure names the stale entry",
            "stale allow-list entry: mecoff::mec::Cache::used_seam is reached"
            in p.stdout, p.stdout)

        # So is an entry for a function no library defines any more.
        gone = write("gone.txt", ALLOW + (
            "mecoff::mec::deleted_long_ago -- was a seam\n"))
        p = run_tool(["--defined", defined, "--kept", kept, "--allow", gone])
        failures += not check("an undefined allow-list entry fails",
                              p.returncode == 1
                              and "mecoff::mec::deleted_long_ago is no longer"
                              in p.stdout, p.stdout + p.stderr)

        # Without the entries, both unreached functions are reported.
        empty = write("empty.txt", "")
        p = run_tool(["--defined", defined, "--kept", kept, "--allow", empty])
        failures += not check(
            "an empty allow-list reports both",
            p.returncode == 1 and "mecoff::mec::Cache::seam (solver.cpp.o)"
            in p.stdout and "mecoff::to_text (text.cpp.o)" in p.stdout,
            p.stdout)
        failures += not check(
            "weak, data and std:: symbols are outside the scan",
            "size" not in p.stdout and "kTable" not in p.stdout
            and "vector" not in p.stdout, p.stdout)

        # An entry without a reason is an input error.
        bare = write("bare.txt", "mecoff::mec::Cache::seam\n")
        p = run_tool(["--defined", defined, "--kept", kept, "--allow", bare])
        failures += not check("an entry without a reason exits 2",
                              p.returncode == 2 and "bare.txt:1" in p.stderr,
                              p.stdout + p.stderr)

        p = run_tool(["--defined", defined, "--allow", allow])
        failures += not check("--defined without --kept exits 2",
                              p.returncode == 2, p.stdout + p.stderr)

    if failures:
        print(f"unreached_selftest: {failures} check(s) failed")
        return 1
    print("unreached_selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
