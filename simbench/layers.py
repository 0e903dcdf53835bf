"""Attribute a gprof flat profile of the simulator to its layers.

A layer is a group of source directories under src/ (LAYERS). A
profiled function belongs to the layer of the file that defines it,
as the binary's debug line info names it (`nm -l`). Functions defined
outside src/ -- std templates, std::function thunks -- belong to the
project type they were instantiated on: the class that encloses a
lambda, or else the first `banshee::` type named in the signature, so
`std::_Hashtable<..., banshee::PageTableManager::Entry, ...>::find` is
`os` and `std::deque<banshee::DramChannel::Pending>::_M_erase` is
`dram`. A function matched by neither rule is unattributed.

Run `python3 -m unittest discover -s simbench` for the tests.
"""

import hashlib
import os
import re
import subprocess

LAYERS = (
    ("cpu", ("cpu",)),
    ("workload", ("workload",)),
    ("cache", ("cache",)),
    ("scheme", ("mem", "schemes", "core")),
    ("os", ("os",)),
    ("dram", ("dram", "power")),
    ("common", ("common",)),
    ("resize", ("resize", "tenant")),
    ("sim", ("sim", "telemetry")),
)
LAYER_NAMES = tuple(name for name, _ in LAYERS)
DIR_LAYER = {d: name for name, dirs in LAYERS for d in dirs}
# The benchmark's own driver runs the System; its few samples go to sim.
DRIVER_LAYER = "sim"

# A type defined at namespace scope: declarations start in column 0
# (namespace bodies are not indented). Forward declarations end in ';'.
_TYPE_DECL = re.compile(
    r"^(?:class|struct|union|enum(?:\s+class)?)\s+(\w+)\b(?!\s*;)")
_PROJECT_TYPE = re.compile(
    r"banshee::(?:\(anonymous namespace\)::)?(\w+)")
_FLAT_ROW = re.compile(
    r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:(\d+)\s+[\d.]+\s+[\d.]+\s+)?(\S+)")
_CLONE_SUFFIX = re.compile(r"(?: \[clone [^\]]*\])+$")


def type_index(src_root):
    """Map each namespace-scope type name under @p src_root to its
    layer. A name defined in two layers is left out (ambiguous)."""
    found = {}
    for d, layer in DIR_LAYER.items():
        base = os.path.join(src_root, d)
        if not os.path.isdir(base):
            continue
        for name in sorted(os.listdir(base)):
            if not name.endswith((".hh", ".cc")):
                continue
            with open(os.path.join(base, name), encoding="utf-8") as f:
                for line in f:
                    m = _TYPE_DECL.match(line)
                    if m:
                        found.setdefault(m.group(1), set()).add(layer)
    return {n: ls.pop() for n, ls in found.items() if len(ls) == 1}


def file_layer(path, src_root, driver_dir):
    """Layer of a function defined in @p path, or None outside src/."""
    if not path:
        return None
    path = os.path.normpath(path)
    if path.startswith(os.path.normpath(driver_dir) + os.sep):
        return DRIVER_LAYER
    src = os.path.normpath(src_root) + os.sep
    if not path.startswith(src):
        return None
    return DIR_LAYER.get(path[len(src):].split(os.sep, 1)[0])


def _lambda_owner(name):
    """The qualified function enclosing the first lambda in a demangled
    name (`ns::Cls::fn(args)::{lambda...`), or None."""
    at = name.find("::{lambda")
    if at < 0:
        return None
    i = at
    if name.endswith(" const", 0, i):
        i -= len(" const")
    if i == 0 or name[i - 1] != ")":
        return None
    depth = 0
    while i > 0:
        i -= 1
        if name[i] == ")":
            depth += 1
        elif name[i] == "(":
            depth -= 1
            if depth == 0:
                break
    # Walk back over the qualified function name to the nearest
    # delimiter that cannot appear inside it.
    j = i
    while j > 0 and name[j - 1] not in " ,<(":
        j -= 1
    return name[j:i]


def type_layer(name, types):
    """Layer of the project type a std instantiation is made for."""
    owner = _lambda_owner(name)
    for text in ((owner,) if owner else ()) + (name,):
        for m in _PROJECT_TYPE.finditer(text):
            layer = types.get(m.group(1))
            if layer:
                return layer
    return None


def base_name(demangled):
    """Demangled name without compiler clone suffixes (.part, .cold)."""
    return _CLONE_SUFFIX.sub("", demangled)


def parse_flat(text):
    """Rows (mangled symbol, self seconds, calls or None) of a
    `gprof -b -p --no-demangle` flat profile."""
    rows = []
    for line in text.splitlines():
        m = _FLAT_ROW.match(line)
        if m:
            calls = int(m.group(2)) if m.group(2) is not None else None
            rows.append((m.group(3), float(m.group(1)), calls))
    return rows


def parse_nm_lines(text):
    """Symbol -> defining file from `nm -l --defined-only` output."""
    files = {}
    for line in text.splitlines():
        head, sep, where = line.partition("\t")
        parts = head.split()
        if sep and len(parts) == 3:
            files[parts[2]] = where.rsplit(":", 1)[0]
    return files


def demangle(symbols):
    """Demangle @p symbols with one c++filt process."""
    if not symbols:
        return {}
    out = subprocess.run(["c++filt"], input="\n".join(symbols) + "\n",
                         capture_output=True, text=True, check=True).stdout
    return dict(zip(symbols, out.splitlines()))


def attribute(rows, names, files, types, src_root, driver_dir):
    """Attribute flat-profile @p rows to layers.

    @p names maps mangled -> demangled symbols, @p files mangled ->
    defining file. Returns (base demangled name, layer or
    'unattributed', self seconds, calls or None) per row.
    """
    out = []
    for sym, self_s, ncalls in rows:
        name = names.get(sym, sym)
        layer = (file_layer(files.get(sym), src_root, driver_dir)
                 or type_layer(name, types) or "unattributed")
        out.append((base_name(name), layer, self_s, ncalls))
    return out


def layer_seconds(attributed):
    """Self seconds per layer (plus 'unattributed')."""
    seconds = {layer: 0.0 for layer in LAYER_NAMES + ("unattributed",)}
    for _, layer, self_s, _ in attributed:
        seconds[layer] += self_s
    return seconds


def count_calls(attributed, pattern, layer=None):
    """Total calls of the functions whose base name matches @p pattern
    (a regex searched in it), optionally only those in @p layer."""
    rx = re.compile(pattern)
    return sum(n or 0 for name, where, _, n in attributed
               if rx.search(name) and (layer is None or where == layer))


# Reading a profile safely. gprof does not check that a gmon.out came
# from the binary it is given; a profile read against a rebuilt binary
# yields plausible but wrong counts. So the profiled run executes a
# private copy of the binary, writes its profile under its own pid,
# and both are checked before gprof reads them.

class StaleProfile(Exception):
    """The profile cannot be tied to the binary and run that made it."""


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_profile_fresh(binary, digest, gmon, started):
    """Raise StaleProfile unless @p gmon was written after @p started
    (a time.time() taken before the run) by @p binary, which must still
    hash to @p digest and be older than the run."""
    if not os.path.isfile(gmon):
        raise StaleProfile("the profiled run wrote no %s" % gmon)
    if os.stat(gmon).st_mtime < started:
        raise StaleProfile("%s predates the profiled run" % gmon)
    if os.stat(binary).st_mtime > started:
        raise StaleProfile("%s changed after the run started" % binary)
    if file_digest(binary) != digest:
        raise StaleProfile("%s is not the binary that ran" % binary)
