#!/usr/bin/env python3
"""Report library exports that nothing outside their module uses.

Scans every top-level `val` of `lib/**/*.mli` and looks for a caller in
the .ml/.mli files of lib, bin, bench, perfbench, examples and test.
A value counts as called when a file outside its own module names it

  - qualified, as `M.v` (whatever prefixes `M`),
  - through an alias `module X = ...M` (or `let module X = ... in`), as `X.v`,
  - unqualified, in a file that opens or includes `M` (`open M`,
    `let open M in`, `M.( ... )`, `include M`).

A module that includes another (`include Ndroid_report.Flow`) passes
its references on to the included one.  Values declared inside a nested
`sig ... end` (e.g. `Proto.Client`) are skipped.  An optional argument
`?lbl` of an exported value counts as set when `~lbl` or `?lbl` follows
one of the value's call sites outside its definition.

Usage: python3 tools/unused_exports.py [ROOT]
Prints one line per finding and a summary; exits 1 if there is a finding.
"""

import os
import re
import sys

CALLER_DIRS = ("lib", "bin", "bench", "perfbench", "examples", "test")

IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
UIDENT = r"[A-Z][A-Za-z0-9_']*"
QUOTED_RE = re.compile(r"\{([a-z_]*)\|")
CHAR_RE = re.compile(r"'(\\[\\'\"ntbr ]|\\[0-9]{3}|\\x[0-9a-fA-F]{2}|[^\\'])'")


def strip(src):
    """Blank out comments, string and char literals, keeping offsets."""
    out = list(src)
    i, n = 0, len(src)

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    def skip_string(i):
        i += 1
        while i < n and src[i] != '"':
            i += 2 if src[i] == "\\" else 1
        return i + 1

    def skip_quoted(m):
        end = src.find("|" + m.group(1) + "}", m.end())
        return n if end < 0 else end + len(m.group(1)) + 2

    while i < n:
        c = src[i]
        if c == "(" and src.startswith("(*", i) and not src.startswith("(*)", i):
            start, depth = i, 0
            while i < n:
                if src.startswith("(*", i):
                    depth += 1
                    i += 2
                elif src.startswith("*)", i):
                    depth -= 1
                    i += 2
                    if depth == 0:
                        break
                elif src[i] == '"':
                    i = skip_string(i)
                else:
                    i += 1
            blank(start, i)
        elif c == '"':
            start = i
            i = skip_string(i)
            blank(start + 1, i - 1)
        elif c == "{" and QUOTED_RE.match(src, i):
            start = i
            i = skip_quoted(QUOTED_RE.match(src, i))
            blank(start, i)
        elif c == "'" and CHAR_RE.match(src, i):
            end = CHAR_RE.match(src, i).end()
            blank(i, end)
            i = end
        else:
            i += 1
    return "".join(out)


class Export:
    def __init__(self, key, name, line, labels):
        self.key, self.name, self.line, self.labels = key, name, line, labels
        self.outside = False
        self.set_labels = set()


def parse_mli(text):
    """Top-level vals of an interface: (name, line, optional labels)."""
    vals = []
    depth = 0
    item_re = re.compile(
        r"\b(sig|object|end|val|type|module|exception|external|include|open|class)\b")
    items = list(item_re.finditer(text))
    for idx, m in enumerate(items):
        word = m.group(1)
        if word in ("sig", "object"):
            depth += 1
        elif word == "end":
            depth -= 1
        elif word == "val" and depth == 0:
            nm = re.compile(r"val\s+(" + IDENT + r")\s*:").match(text, m.start())
            if not nm:
                continue
            stop = len(text)
            for later in items[idx + 1:]:
                if later.group(1) not in ("sig", "object", "end"):
                    stop = later.start()
                    break
            labels = re.findall(r"\?(" + IDENT + r")\s*:", text[nm.end():stop])
            line = text.count("\n", 0, m.start()) + 1
            vals.append((nm.group(1), line, labels))
    return vals


def lib_of(path):
    parts = path.split(os.sep)
    return parts[1] if parts[0] == "lib" and len(parts) > 2 else None


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..")
    os.chdir(root)

    # library directory -> dune library name
    lib_names = {}
    for d in sorted(os.listdir("lib")):
        dune = os.path.join("lib", d, "dune")
        if os.path.exists(dune):
            m = re.search(r"\(name\s+(\w+)\)", open(dune).read())
            if m:
                lib_names[m.group(1).capitalize()] = d

    sources = []
    for top in CALLER_DIRS:
        for dirpath, dirnames, files in os.walk(top):
            dirnames[:] = [d for d in dirnames if not d.startswith((".", "_"))]
            for f in sorted(files):
                if f.endswith((".ml", ".mli")):
                    sources.append(os.path.join(dirpath, f))
    texts = {p: strip(open(p, encoding="utf-8").read()) for p in sources}

    # module key = (library dir, module name)
    def key_of_path(p):
        d = lib_of(p)
        base = os.path.basename(p).rsplit(".", 1)[0]
        return (d, base[0].upper() + base[1:]) if d else None

    modules = {}
    exports = {}
    files = {}
    for p in sources:
        k = key_of_path(p)
        if k is None:
            continue
        modules.setdefault(k[1], set()).add(k)
        files[(k, p.rsplit(".", 1)[1])] = p
        if p.endswith(".mli"):
            exports[k] = [Export(k, *v) for v in parse_mli(texts[p])]

    def resolve(chain, here_lib, aliases):
        """Module keys a module path (list of components) may denote."""
        chain = list(chain)
        while chain and chain[0] in aliases:
            chain = aliases[chain[0]] + chain[1:]
        if not chain:
            return set()
        name = chain[-1]
        cands = modules.get(name, set())
        if len(chain) > 1 and chain[-2] in lib_names:
            return {k for k in cands if k[0] == lib_names[chain[-2]]}
        if len(chain) == 1 and here_lib and (here_lib, name) in cands:
            return {(here_lib, name)}
        return set(cands)

    # `include P.M` in a library module: references to it reach M too
    includes = {}
    for p in sources:
        k = key_of_path(p)
        if k is None:
            continue
        for m in re.finditer(r"^include\s+(?:module\s+type\s+of\s+)?((?:" + UIDENT + r"\.)*" + UIDENT + r")",
                             texts[p], re.M):
            includes.setdefault(k, set()).update(resolve(m.group(1).split("."), k[0], {}))

    def closure(keys):
        seen, todo = set(), list(keys)
        while todo:
            k = todo.pop()
            if k not in seen:
                seen.add(k)
                todo.extend(includes.get(k, ()))
        return seen

    by_key_name = {}
    for k, vals in exports.items():
        for e in vals:
            by_key_name[(k, e.name)] = e

    path = r"((?:" + UIDENT + r"\.)*" + UIDENT + r")"
    alias_re = re.compile(r"\bmodule\s+(" + UIDENT + r")\s*=\s*" + path + r"\b(?!\s*\()")
    open_re = re.compile(r"\b(?:open!?|include)\s+" + path + r"\b")
    local_open_re = re.compile(r"\b" + path + r"\.\(")
    qual_re = re.compile(r"(?<![A-Za-z0-9_'.])((?:" + UIDENT + r"\.)+)(" + IDENT + r")")
    word_re = re.compile(r"(?<![A-Za-z0-9_'.~?])(" + IDENT + r")\b")

    stop_re = re.compile(r"\b(in|let|then|else|with|and|do|done|end)\b|;|->|\|>|@@|\|(?!\|)")
    label_re = re.compile(r"[~?](" + IDENT + r")")
    def_re = re.compile(r"\b(?:let|and|val|external)\s+(?:rec\s+)?$")

    def labels_after(text, pos):
        """Labels passed at depth 0 of the expression starting at pos."""
        found, depth, i, n = set(), 0, pos, min(len(text), pos + 600)
        while i < n:
            c = text[i]
            if c in "([{":
                depth += 1
            elif c in ")]}":
                depth -= 1
                if depth < 0:
                    break
            elif depth == 0:
                if stop_re.match(text, i):
                    break
                m = label_re.match(text, i)
                if m:
                    found.add(m.group(1))
                    i = m.end()
                    continue
            i += 1
        return found

    for p in sources:
        text = texts[p]
        own = key_of_path(p)
        here = lib_of(p)
        aliases = {}
        for m in alias_re.finditer(text):
            aliases[m.group(1)] = m.group(2).split(".")
        opened = set()
        for m in list(open_re.finditer(text)) + list(local_open_re.finditer(text)):
            opened |= closure(resolve(m.group(1).split("."), here, aliases))

        def hit(keys, name, end):
            for k in closure(keys):
                e = by_key_name.get((k, name))
                if e is None:
                    continue
                if k != own:
                    e.outside = True
                if e.labels:
                    e.set_labels |= labels_after(text, end)

        for m in qual_re.finditer(text):
            chain = m.group(1).rstrip(".").split(".")
            if m.group(2)[0].isupper():
                continue
            hit(resolve(chain, here, aliases), m.group(2), m.end())
        targets = {k for k in opened if k != own}
        if own is not None:
            targets.add(own)
        if targets:
            for m in word_re.finditer(text):
                if def_re.search(text, max(0, m.start() - 12), m.start()):
                    continue
                for k in targets:
                    e = by_key_name.get((k, m.group(1)))
                    if e is None:
                        continue
                    if k != own:
                        e.outside = True
                    if e.labels and not p.endswith(".mli"):
                        e.set_labels |= labels_after(text, m.end())

    def used_inside(e):
        """Is the name mentioned in its own .ml besides its definition?"""
        text = texts.get(files.get((e.key, "ml")), "")
        for m in re.finditer(r"(?<![A-Za-z0-9_'.~?])" + re.escape(e.name) + r"\b", text):
            if not def_re.search(text, max(0, m.start() - 12), m.start()):
                return True
        return False

    no_caller = unused = unset = 0
    for k in sorted(exports):
        mli = files[(k, "mli")]
        for e in exports[k]:
            if not e.outside:
                no_caller += 1
                dead = not used_inside(e)
                unused += dead
                what = "is used nowhere" if dead else "is used only inside its module"
                print(f"{mli}:{e.line}: {k[1]}.{e.name} {what}")
            for lbl in e.labels:
                if lbl not in e.set_labels:
                    unset += 1
                    print(f"{mli}:{e.line}: {k[1]}.{e.name} ?{lbl} is never set by a caller")
    total = sum(len(v) for v in exports.values())
    print(f"{total} exported values: {no_caller} without a caller outside their module "
          f"({unused} used nowhere), {unset} optional arguments never set")
    return 1 if no_caller or unset else 0


if __name__ == "__main__":
    sys.exit(main())
