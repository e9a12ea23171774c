#!/usr/bin/env python3
"""List the functions that no root binary links, and hold that list to a ratchet.

Usage: python3 scripts/unreached.py [--list]

The roots are the binaries DESIGN.md's "Roots" section names: every
command under cmd/, the kept example, and perfbench (its own module,
which imports the simulator through a replace directive). Each is built
with inlining off (-gcflags=all=-l), so a function that is called
anywhere in a binary keeps its own symbol in `go tool nm`.

The script then walks every non-test Go file under internal/, cmd/ and
the root package and collects each declared function and method. A
declaration whose symbol appears in no root binary is unreached. A
package main's functions are looked up only in its own binary.

"Reached" is an upper bound. Converting a value to an interface keeps
the methods of every type it reaches linked, whether or not anything
calls them, so a method can count as reached only because its type
once passed through an interface.

It fails (exit 1) on an unreached name that scripts/unreached_allow.txt
does not list, and on an allow entry that is now reached or no longer
declared, so the allow file can only shrink. Each allow line is
`<name>  # <why it stays>`; names are `<import path>.<Func>` or
`<import path>.<Type>.<Method>`. --list prints every unreached name
and exits 0.
"""

import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULE = "udpsim"
ALLOW = os.path.join(ROOT, "scripts", "unreached_allow.txt")

# (binary name, module dir relative to ROOT, package to build)
ROOTS = [
    ("figures", ".", "./cmd/figures"),
    ("sweep", ".", "./cmd/sweep"),
    ("udpsim", ".", "./cmd/udpsim"),
    ("trace", ".", "./cmd/trace"),
    ("experiment", ".", "./cmd/experiment"),
    ("udpsimd", ".", "./cmd/udpsimd"),
    ("udpdeepdive", ".", "./examples/udpdeepdive"),
    ("perfbench", "perfbench", "."),
]

# A declaration's receiver type (group 1, if a method) and name.
FUNC_DECL = re.compile(r"^func\s+(?:\(\s*(?:\w+\s+)?\*?\s*(\w+)(?:\[[^\]]*\])?\s*\)\s*)?(\w+)")
# Type arguments in a symbol such as pkg.Mean[go.shape.float64].
GENERIC_ARGS = re.compile(r"\[[^\[\]]*\]")


def normalize(sym):
    """Drop type arguments and pointer-receiver parens from a symbol."""
    prev = None
    while prev != sym:
        prev, sym = sym, GENERIC_ARGS.sub("", sym)
    return sym.replace("(*", "").replace(")", "")


def build_roots(outdir):
    symbols = {}
    for name, moddir, pkg in ROOTS:
        out = os.path.join(outdir, name)
        subprocess.run(["go", "build", "-gcflags=all=-l", "-o", out, pkg],
                       cwd=os.path.join(ROOT, moddir), check=True)
        nm = subprocess.run(["go", "tool", "nm", out], check=True,
                            capture_output=True, text=True).stdout
        syms = set()
        for line in nm.splitlines():
            parts = line.split()
            if len(parts) >= 3 and parts[-2] in ("T", "t"):
                syms.add(normalize(parts[-1]))
        symbols[name] = syms
    return symbols


def declared():
    """Yield (name, symbol, binary) for every non-test func. binary is
    None outside package main, whose symbols any root may link, and ""
    for a main package that no root builds."""
    mains = {pkg.lstrip("./"): name for name, moddir, pkg in ROOTS if moddir == "."}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        rel = os.path.relpath(dirpath, ROOT)
        if rel != "." and rel.split(os.sep)[0] not in ("internal", "cmd"):
            dirnames[:] = []
            continue
        dirnames[:] = [d for d in dirnames if not d.startswith(".") and d != "testdata"]
        relpkg = "" if rel == "." else rel.replace(os.sep, "/")
        path = MODULE if not relpkg else MODULE + "/" + relpkg
        for fn in sorted(filenames):
            if not fn.endswith(".go") or fn.endswith("_test.go"):
                continue
            with open(os.path.join(dirpath, fn)) as fh:
                src = fh.read()
            is_main = re.search(r"^package main\b", src, re.M) is not None
            for line in src.splitlines():
                m = FUNC_DECL.match(line)
                if not m:
                    continue
                recv, fname = m.group(1), m.group(2)
                if fname in ("init", "main", "_"):
                    continue
                dotted = recv + "." + fname if recv else fname
                if is_main:
                    yield path + "." + dotted, "main." + dotted, mains.get(relpkg, "")
                else:
                    yield path + "." + dotted, path + "." + dotted, None


def read_allow():
    allow = {}
    with open(ALLOW) as fh:
        for n, line in enumerate(fh, 1):
            body = line.strip()
            if not body or body.startswith("#"):
                continue
            name, sep, why = body.partition("#")
            if not sep or not why.strip():
                sys.exit(f"{ALLOW}:{n}: entry gives no reason: {body}")
            allow[name.strip()] = n
    return allow


def main():
    with tempfile.TemporaryDirectory(prefix="unreached-") as tmp:
        symbols = build_roots(tmp)
    every = set().union(*symbols.values())
    unreached, names = [], set()
    for name, sym, binary in declared():
        names.add(name)
        linked = every if binary is None else symbols.get(binary, set())
        if sym not in linked:
            unreached.append(name)
    unreached.sort()
    if "--list" in sys.argv[1:]:
        print("\n".join(unreached))
        return 0
    allow = read_allow()
    bad = False
    for name in unreached:
        if name not in allow:
            print(f"unreached and not allowed: {name}")
            bad = True
    for name, line in sorted(allow.items(), key=lambda kv: kv[1]):
        if name not in names:
            print(f"{os.path.relpath(ALLOW, ROOT)}:{line}: {name} is no longer declared; drop the entry")
            bad = True
        elif name not in unreached:
            print(f"{os.path.relpath(ALLOW, ROOT)}:{line}: {name} is now reached; drop the entry")
            bad = True
    if bad:
        return 1
    print(f"unreached: {len(unreached)} functions, all in {os.path.relpath(ALLOW, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
