#!/usr/bin/env python3
"""Whole-repo architecture analyzer: cross-file invariants lint.py
cannot see.

scripts/lint.py polices single-file bug classes; this tool holds the
*relationships* between files — the layering DAG of src/, header
hygiene, and the name-level contracts between the simulator, its
tests, the benchmark harness and the README. It is stdlib-only (it
imports the C++ lexer from lint.py, nothing else) and runs in a bare
container, so it is part of the *unconditional* tier-1 gate in
scripts/check.sh.

Rules (ids are stable; see --list-rules):

  layer-dag     Every src/ directory declares the layers it may
                include (ALLOWED_DEPS below, mirrored in README.md).
                An #include crossing a forbidden edge — say crc/
                reaching into sim/ — is a violation at the include
                line. Keeps the dependency structure an explicit,
                reviewed artifact instead of an accident.
  layer-cycle   The *measured* directory-level include graph must be
                acyclic, independently of layer-dag: if ALLOWED_DEPS
                itself is ever relaxed into a cycle, this still fires.
  header-guard  Every src/ header carries #pragma once or the
                canonical REGPU_<DIR>_<FILE>_HH guard pair (scanned
                whole-file: a guard below a long doc comment is fine;
                a misspelled or missing one is not).
  include-cc    #include of a .cc file compiles a TU into another TU:
                double-definition landmine, breaks the one-TU-per-
                source CMake model.
  stat-name     Stat names read through counter("x.y") in tests/,
                bench/ and examples/, README backticks and the
                benchmark harness (HARNESS: its dotted string
                literals) must exist in src/ —
                either a stats registration (.inc) or an obs
                cat.name composition (ObsScope/obsCounter/obsInstant). Catches phantom
                stats left behind by renames. Only dotted names whose
                prefix is an actual src/ stat/obs prefix are gated, so
                unrelated dotted tokens (file names, bench record ids)
                never false-positive; a file may also register its
                own names locally (tests do).
  csv-schema    The CSV/JSON run schema is listed once in
                src/sim/report.cc: the identity names in csvColumns(),
                then the resultColumns table, which csvColumns(),
                writeCsvRow and writeJsonRun all walk. The
                column-reference table in README.md (between the
                analyze:csv-schema:begin/end markers) must document
                exactly those columns, and writeJsonRun may spell out
                no key beyond them and the declared identity extras
                (seed + geometry).
  raw-mutex     src/ synchronizes through regpu::Mutex/MutexLock
                (common/thread_annotations.hh) so clang -Wthread-
                safety can check lock discipline; a naked std::mutex/
                std::lock_guard carries no capability annotations and
                silently opts its file out of the analysis.

Suppression syntax is lint.py's, with the analyze marker (each use
needs a non-empty reason; unused suppressions are violations):

  code();  // analyze:allow(rule-id): reason       same line
  // analyze:allow(rule-id): reason                line above
  // analyze:allow-file(rule-id): reason           whole file, first
                                                   40 lines only
  <!-- analyze:allow(rule-id): reason -->          markdown, same line

To add a rule: append a TreeRule to RULES with a findings function
over Tree (path -> FileText for C++/markdown/python sources), and
fixture trees in FIXTURES proving it fires and stays quiet —
--self-test runs every rule against its fixtures, including the
acceptance injections (a layering cycle, a crc -> sim edge, a phantom
stat name read by a test, a bench or an example).
"""

import argparse
import dataclasses
import os
import re
import sys
from typing import Callable, Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from lint import (FileText, Suppressions, Violation,  # noqa: E402
                  strip_code)

Tree = Dict[str, FileText]

CXX_EXTENSIONS = (".cc", ".cpp", ".hh", ".h")

# --- The declared layering DAG ----------------------------------------------
#
# Per-directory allowed #include targets inside src/ (transitively
# closed by hand; sim is the integration layer and may see everything).
# Mirrored prose lives in README.md ("Layering"); change both together.
ALLOWED_DEPS: Dict[str, Tuple[str, ...]] = {
    "common": (),
    "crc": ("common",),
    "obs": ("common",),            # leaf: importable by anyone
    "power": ("common",),
    "gpu": ("common", "crc", "obs"),
    "scene": ("common", "gpu"),
    "workloads": ("common", "scene"),
    "timing": ("common", "gpu", "obs"),
    "memo": ("common", "gpu"),
    "re": ("common", "crc", "gpu", "obs"),
    "te": ("common", "crc", "gpu", "obs", "re"),
    "trace": ("common", "crc", "gpu", "scene"),
    "sim": ("common", "crc", "gpu", "memo", "obs", "power", "re",
            "scene", "te", "timing", "trace", "workloads"),
}

# writeJsonRun() may spell out these identity keys beyond the CSV
# columns (run provenance: which scene/screen produced the numbers).
JSON_IDENTITY_EXTRAS = ("seed", "screenWidth", "screenHeight",
                        "tileWidth", "tileHeight")

# The benchmark harness reads stats by name through
# StatRegistry::counter, which returns 0 for an unknown name: a
# renamed stat would turn one of its correctness checks into a silent
# pass. Only stat-name reads it (it is outside SCAN_DIRS).
HARNESS = "perfbench/regpu_bench.cc"

# Directories whose counter("x.y") reads stat-name checks. The same
# silent 0 hides there: the Section V table in bench/paper_figures.cc
# and suite_cli's --assert-conservation gate both read stats by name.
STAT_READER_DIRS = ("tests/", "bench/", "examples/")

# The table of result columns in src/sim/report.cc.
RESULT_TABLE = "resultColumns"

CSV_TABLE_BEGIN = "analyze:csv-schema:begin"
CSV_TABLE_END = "analyze:csv-schema:end"

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*(")', re.M)


@dataclasses.dataclass
class TreeRule:
    rule_id: str
    summary: str
    findings: Callable[[Tree], List[Violation]]


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def quoted_arg_at(raw: str, offset: int) -> str:
    """The string literal starting at raw[offset] (offset points at
    an opening quote located in the code view; contents live in
    raw, where strip_code left them intact)."""
    m = re.match(r'"([^"\\]*)"', raw[offset:])
    return m.group(1) if m else ""


def cxx_files(tree: Tree, prefix: str = "") -> List[FileText]:
    return [ft for path, ft in sorted(tree.items())
            if path.startswith(prefix)
            and path.endswith(CXX_EXTENSIONS)]


def src_includes(ft: FileText) -> List[Tuple[int, str]]:
    """(line, include-path) pairs of quoted includes. The directive is
    matched in the code view (commented-out includes never count) but
    the path is read from raw, where literal contents survive."""
    out = []
    for m in INCLUDE_RE.finditer(ft.code):
        inc = quoted_arg_at(ft.raw, m.start(1))
        if inc:
            out.append((line_of(ft.code, m.start()), inc))
    return out


def include_edges(tree: Tree) -> List[Tuple[str, int, str, str]]:
    """All cross-directory include edges inside src/:
    (path, line, from-dir, to-dir)."""
    edges = []
    for ft in cxx_files(tree, "src/"):
        src_dir = ft.path.split("/")[1]
        for line, inc in src_includes(ft):
            if "/" not in inc:
                continue
            to_dir = inc.split("/")[0]
            if to_dir in ALLOWED_DEPS and to_dir != src_dir:
                edges.append((ft.path, line, src_dir, to_dir))
    return edges


# --- layer-dag / layer-cycle ------------------------------------------------

def find_layer_dag(tree: Tree) -> List[Violation]:
    out = []
    for ft in cxx_files(tree, "src/"):
        src_dir = ft.path.split("/")[1]
        allowed = ALLOWED_DEPS.get(src_dir)
        if allowed is None:
            out.append(Violation(
                ft.path, 1, "layer-dag",
                f"src/{src_dir}/ is not a declared layer; add it to "
                "ALLOWED_DEPS in scripts/analyze.py (and the README "
                "layering section) before including from it"))
            continue
        for line, inc in src_includes(ft):
            if "/" not in inc:
                continue
            to_dir = inc.split("/")[0]
            if to_dir == src_dir or to_dir not in ALLOWED_DEPS:
                continue
            if to_dir not in allowed:
                out.append(Violation(
                    ft.path, line, "layer-dag",
                    f"forbidden layer edge {src_dir} -> {to_dir}: "
                    f"src/{src_dir}/ may only include "
                    f"{{{', '.join(allowed) or 'nothing'}}} "
                    "(ALLOWED_DEPS in scripts/analyze.py)"))
    return out


def find_layer_cycle(tree: Tree) -> List[Violation]:
    edges = include_edges(tree)
    graph: Dict[str, set] = {}
    for _path, _line, frm, to in edges:
        graph.setdefault(frm, set()).add(to)

    # Iterative DFS cycle detection over the measured graph.
    WHITE, GREY, BLACK = 0, 1, 2
    color = {d: WHITE for d in graph}
    cycle_edges = set()

    def visit(start):
        stack = [(start, iter(sorted(graph.get(start, ()))))]
        color[start] = GREY
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nbr in it:
                state = color.get(nbr, BLACK if nbr not in graph
                                  else WHITE)
                if nbr not in graph:
                    continue
                if color[nbr] == GREY:
                    # Back edge: everything from nbr around to node.
                    tail = path[path.index(nbr):] + [nbr]
                    for a, b in zip(tail, tail[1:]):
                        cycle_edges.add((a, b))
                elif color[nbr] == WHITE:
                    color[nbr] = GREY
                    path.append(nbr)
                    stack.append((nbr, iter(sorted(graph[nbr]))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                path.pop()
                color[node] = BLACK

    for d in sorted(graph):
        if color[d] == WHITE:
            visit(d)

    out = []
    for path, line, frm, to in edges:
        if (frm, to) in cycle_edges:
            out.append(Violation(
                path, line, "layer-cycle",
                f"include edge {frm} -> {to} participates in a "
                "directory-level include cycle; the src/ layer graph "
                "must stay a DAG"))
    return out


# --- header-guard / include-cc ----------------------------------------------

def find_header_guard(tree: Tree) -> List[Violation]:
    out = []
    for ft in cxx_files(tree, "src/"):
        if not ft.path.endswith((".hh", ".h")):
            continue
        if re.search(r"^\s*#\s*pragma\s+once\b", ft.code, re.M):
            continue
        stem = ft.path[len("src/"):].rsplit(".", 1)[0]
        want = "REGPU_" + re.sub(r"\W", "_", stem).upper() + "_HH"
        has_ifndef = re.search(r"^\s*#\s*ifndef\s+" + want + r"\b",
                               ft.code, re.M)
        has_define = re.search(r"^\s*#\s*define\s+" + want + r"\b",
                               ft.code, re.M)
        if has_ifndef and has_define:
            continue
        got = re.search(r"^\s*#\s*ifndef\s+(\w+)", ft.code, re.M)
        detail = (f"found guard {got.group(1)}" if got
                  else "no guard found")
        out.append(Violation(
            ft.path, got and line_of(ft.code, got.start()) or 1,
            "header-guard",
            f"header needs #pragma once or the canonical "
            f"#ifndef/#define {want} pair ({detail})"))
    return out


def find_include_cc(tree: Tree) -> List[Violation]:
    out = []
    for ft in cxx_files(tree):
        if ft.path == HARNESS:
            continue  # read by stat-name only
        for line, inc in src_includes(ft):
            if inc.endswith(".cc"):
                out.append(Violation(
                    ft.path, line, "include-cc",
                    f'#include "{inc}": including a .cc compiles its '
                    "definitions into this TU too (ODR landmine); "
                    "include the header and link the library"))
    return out


# --- stat-name --------------------------------------------------------------

def stat_definitions(tree: Tree, prefix: str) -> set:
    """Names registered via .inc("...") in files under
    @p prefix. Call shape matched in the code view, name read from
    raw, so comments can't define and literals can't hide."""
    names = set()
    for ft in cxx_files(tree, prefix):
        for m in re.finditer(r'\.inc\s*\(\s*(")', ft.code):
            name = quoted_arg_at(ft.raw, m.start(1))
            if name:
                names.add(name)
    return names


def obs_compositions(tree: Tree) -> set:
    """cat.name pairs emitted by the observability layer: ObsScope
    construction (direct or optional.emplace) and the obsCounter /
    obsInstant helpers."""
    names = set()
    pat = re.compile(
        r'(?:\bObsScope\s+\w+\s*\(|\bObsScope\s*\(|\.emplace\s*\(|'
        r'\bobsCounter\s*\(|\bobsInstant\s*\()\s*(")(\s*,\s*)?')
    for ft in cxx_files(tree, "src/"):
        for m in pat.finditer(ft.code):
            cat = quoted_arg_at(ft.raw, m.start(1))
            rest = ft.code[m.start(1):]
            second = re.match(r'"[^"\n]*"\s*,\s*(")', rest)
            if not (cat and second):
                continue
            name = quoted_arg_at(ft.raw,
                                 m.start(1) + second.start(1))
            if name:
                names.add(f"{cat}.{name}")
    return names


def find_stat_name(tree: Tree) -> List[Violation]:
    defined = stat_definitions(tree, "src/")
    comps = obs_compositions(tree)
    known = defined | comps
    prefixes = {n.split(".")[0] for n in known if "." in n}

    def gated(name: str) -> bool:
        return "." in name and name.split(".")[0] in prefixes

    out = []

    # counter("x.y") reads in tests, benches and examples, minus
    # names the file registers itself (tests keep local registries).
    readers = [ft for prefix in STAT_READER_DIRS
               for ft in cxx_files(tree, prefix)]
    for ft in readers:
        local = stat_definitions({ft.path: ft}, "")
        for m in re.finditer(r'\bcounter\s*\(\s*(")', ft.code):
            name = quoted_arg_at(ft.raw, m.start(1))
            if (gated(name) and name not in known
                    and name not in local):
                out.append(Violation(
                    ft.path, line_of(ft.code, m.start()), "stat-name",
                    f'stat "{name}" is read here but registered '
                    "nowhere in src/ (nor in this file); phantom "
                    "stat reads return 0 and silently pass"))

    # README: backticked dotted tokens with a known stat/obs prefix.
    readme = tree.get("README.md")
    if readme is not None:
        for m in re.finditer(r"`([A-Za-z_]\w*(?:\.[\w.]+)+)`",
                             readme.raw):
            name = m.group(1)
            if gated(name) and name not in known:
                out.append(Violation(
                    readme.path, line_of(readme.raw, m.start()),
                    "stat-name",
                    f"README documents stat `{name}`, which exists "
                    "nowhere in src/ (renamed or removed?)"))

    # The benchmark harness: dotted string literals (not comments)
    # with a known prefix.
    harness = tree.get(HARNESS)
    if harness is not None:
        for m in re.finditer(r'"([A-Za-z_]\w*(?:\.[\w.]+)+)"',
                             harness.raw):
            if harness.code[m.start()] != '"':
                continue  # the quote was blanked: comment text
            name = m.group(1)
            if gated(name) and name not in known:
                out.append(Violation(
                    harness.path, line_of(harness.raw, m.start()),
                    "stat-name",
                    f'the benchmark reads stat "{name}", which exists '
                    "nowhere in src/ (renamed or removed?)"))
    return out


# --- csv-schema -------------------------------------------------------------

def parse_csv_columns(report: FileText) -> Tuple[int, List[str]]:
    """The CSV columns in order: the identity names in csvColumns()'s
    initializer list, then the name that opens each entry of the
    resultColumns table; (line of the table, names), or (0, []) when
    either is missing. Parsed from raw (string contents are the data
    here)."""
    m = re.search(r"csvColumns\(\)\s*\{", report.raw)
    t = re.search(RESULT_TABLE + r"\[\]\s*=\s*\{", report.raw)
    if not m or not t:
        return 0, []
    body = report.raw[m.end():]
    brace = body.find("};")
    identity = re.findall(r'"([^"]+)"',
                          body[:brace if brace != -1 else len(body)])
    table = report.raw[t.end():]
    end = table.find("\n};")
    names = re.findall(r'^\s*\{"(\w+)",',
                       table[:end if end != -1 else len(table)], re.M)
    if not identity or not names:
        return 0, []
    return line_of(report.raw, t.start()), identity + names


def parse_json_keys(report: FileText) -> List[str]:
    """Keys spelled out by writeJsonRun(): every \\"key\\": fragment
    in the file (only the JSON writer produces that shape)."""
    return re.findall(r'\\"(\w+)\\":', report.raw)


def parse_readme_csv_table(readme: FileText) -> Tuple[int, Dict[str, int]]:
    """(marker line, {column name -> line}) from the README block
    between the analyze:csv-schema markers; (0, {}) when absent."""
    begin = readme.raw.find(CSV_TABLE_BEGIN)
    end = readme.raw.find(CSV_TABLE_END)
    if begin == -1 or end == -1 or end < begin:
        return 0, {}
    cols = {}
    for m in re.finditer(r"^\|\s*`([^`]+)`", readme.raw[begin:end],
                         re.M):
        cols.setdefault(m.group(1),
                        line_of(readme.raw, begin + m.start()))
    return line_of(readme.raw, begin), cols


def find_csv_schema(tree: Tree) -> List[Violation]:
    report = tree.get("src/sim/report.cc")
    readme = tree.get("README.md")
    if report is None:
        return []
    out = []
    cols_line, cols = parse_csv_columns(report)
    json_keys = parse_json_keys(report)
    if not cols or not json_keys:
        out.append(Violation(
            report.path, 1, "csv-schema",
            "could not parse csvColumns()'s identity names, the "
            f"{RESULT_TABLE} table and writeJsonRun()'s keys; keep "
            "them in src/sim/report.cc in their declarative shapes "
            "(or update scripts/analyze.py alongside a refactor)"))
        return out

    for key in json_keys:
        if key not in cols and key not in JSON_IDENTITY_EXTRAS:
            out.append(Violation(
                report.path, cols_line, "csv-schema",
                f'JSON key "{key}" is neither a CSV column nor a '
                "declared identity extra (JSON_IDENTITY_EXTRAS in "
                "scripts/analyze.py)"))

    if readme is None:
        return out
    table_line, documented = parse_readme_csv_table(readme)
    if not documented:
        out.append(Violation(
            readme.path, 1, "csv-schema",
            f"README.md lacks the CSV column-reference table "
            f"(between {CSV_TABLE_BEGIN} / {CSV_TABLE_END} markers)"))
        return out
    for col in cols:
        if col not in documented:
            out.append(Violation(
                readme.path, table_line, "csv-schema",
                f'CSV column "{col}" is undocumented in the README '
                "column-reference table"))
    for col, line in sorted(documented.items()):
        if col not in cols:
            out.append(Violation(
                readme.path, line, "csv-schema",
                f"README documents CSV column `{col}`, which "
                "csvColumns() does not emit (renamed or removed?)"))
    return out


# --- raw-mutex --------------------------------------------------------------

RAW_MUTEX_RE = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|^\s*#\s*include\s*<mutex>", re.M)


def find_raw_mutex(tree: Tree) -> List[Violation]:
    out = []
    for ft in cxx_files(tree, "src/"):
        if ft.path == "src/common/thread_annotations.hh":
            continue  # the one sanctioned std::mutex wrapper
        for m in RAW_MUTEX_RE.finditer(ft.code):
            what = m.group(1) or "<mutex> include"
            out.append(Violation(
                ft.path, line_of(ft.code, m.start()), "raw-mutex",
                f"raw std:: synchronization ({what}) in src/: use "
                "regpu::Mutex/MutexLock "
                "(common/thread_annotations.hh) so clang "
                "-Wthread-safety can check the lock discipline"))
    return out


# --- cli-flag-doc -----------------------------------------------------------

# A whole string literal that is exactly a CLI flag ("--tile-jobs",
# not a usage blurb that merely contains one): the shape every
# frontend's argv comparison uses.
CLI_FLAG_RE = re.compile(r'"(--[a-z][a-z0-9-]*)"')


def cli_flags_parsed(tree: Tree) -> List[Tuple[str, int, str]]:
    """(path, line, flag) for every flag literal in the CLI frontends
    (examples/) and bench drivers (bench/). Matched on raw so the
    literal's content is visible, then cross-checked against the code
    view so flags quoted inside comments never count."""
    out = []
    for prefix in ("examples/", "bench/"):
        for ft in cxx_files(tree, prefix):
            for m in CLI_FLAG_RE.finditer(ft.raw):
                if ft.code[m.start()] != '"':
                    continue  # the quote was blanked: comment text
                out.append((ft.path, line_of(ft.raw, m.start()),
                            m.group(1)))
    return out


def find_cli_flag_doc(tree: Tree) -> List[Violation]:
    readme = tree.get("README.md")
    if readme is None:
        return []
    out = []
    seen = set()
    for path, line, flag in cli_flags_parsed(tree):
        if flag in seen:
            continue
        seen.add(flag)
        # Boundary guard: "--tile" must not be satisfied by the
        # README mentioning "--tile-jobs".
        if not re.search(re.escape(flag) + r"(?![a-z0-9-])",
                         readme.raw):
            out.append(Violation(
                path, line, "cli-flag-doc",
                f"CLI flag {flag} is parsed here but never mentioned "
                "in README.md; every user-facing flag of the "
                "examples/ and bench/ binaries must be documented"))
    return out


RULES: List[TreeRule] = [
    TreeRule("layer-dag",
             "src/ include edges stay inside the declared layer DAG",
             find_layer_dag),
    TreeRule("layer-cycle",
             "the measured directory include graph is acyclic",
             find_layer_cycle),
    TreeRule("header-guard",
             "src/ headers carry #pragma once or canonical guards",
             find_header_guard),
    TreeRule("include-cc",
             "no #include of .cc files",
             find_include_cc),
    TreeRule("stat-name",
             "stat names read in tests/bench/examples/README/benchmark "
             "exist in src/",
             find_stat_name),
    TreeRule("csv-schema",
             "report.cc's column table == README table; JSON spells "
             "out only identity keys",
             find_csv_schema),
    TreeRule("raw-mutex",
             "src/ locks through annotated regpu::Mutex only",
             find_raw_mutex),
    TreeRule("cli-flag-doc",
             "every --flag parsed by examples/+bench/ is in README.md",
             find_cli_flag_doc),
]


# --- Scanning ---------------------------------------------------------------

SCAN_DIRS = ("src", "bench", "examples", "tests")
EXTRA_FILES = ("README.md", HARNESS)


def make_file(path: str, raw: str) -> FileText:
    # Only C++ gets the lexer; markdown/python rules scan raw and the
    # suppression machinery needs code == raw there.
    code = strip_code(raw) if path.endswith(CXX_EXTENSIONS) else raw
    return FileText(path, raw, code)


def load_tree(root: str) -> Tree:
    tree: Tree = {}
    for top in SCAN_DIRS:
        for dirpath, _dirnames, filenames in os.walk(
                os.path.join(root, top)):
            for name in sorted(filenames):
                if not name.endswith(CXX_EXTENSIONS):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, encoding="utf-8") as f:
                    tree[rel] = make_file(rel, f.read())
    for rel in EXTRA_FILES:
        path = os.path.join(root, rel)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                tree[rel] = make_file(rel, f.read())
    return tree


def analyze_tree(tree: Tree) -> List[Violation]:
    sups = {path: Suppressions(ft, marker="analyze")
            for path, ft in tree.items()}
    violations = []
    for sup in sups.values():
        violations.extend(sup.errors)
    for rule in RULES:
        for v in rule.findings(tree):
            sup = sups.get(v.path)
            if sup and sup.allows(v.line, v.rule):
                continue
            violations.append(v)
    for path, sup in sorted(sups.items()):
        violations.extend(sup.unused(path))
    return sorted(violations, key=lambda v: (v.path, v.line, v.rule))


# --- Self test --------------------------------------------------------------

# A minimal consistent repo the fixtures perturb: parsed schemas, one
# stat of each flavor, clean layering.
BASE_REPORT = (
    'const ResultColumn resultColumns[] = {\n'
    '    {"frames", [](auto &os, auto &r) { os << r.frames; }},\n'
    '    {"energyPj",\n'
    '     [](auto &os, auto &r) { writeJsonDouble(os, r.pj); }},\n'
    '};\n'
    'const std::vector<std::string> &\n'
    'csvColumns()\n{\n'
    '    static const std::vector<std::string> columns = [] {\n'
    '        std::vector<std::string> names = {"workload"};\n'
    '        for (const ResultColumn &c : resultColumns)\n'
    '            names.emplace_back(c.name);\n'
    '        return names;\n    }();\n'
    '    return columns;\n}\n'
    'void writeJsonRun(std::ostream &os)\n{\n'
    '    os << "{\\"workload\\":" << w;\n'
    '    os << ",\\"seed\\":" << seed;\n'
    '    for (const ResultColumn &c : resultColumns)\n'
    '        os << ",\\"" << c.name << "\\":";\n}\n')
BASE_README = (
    "## Output schema\n\n"
    "<!-- analyze:csv-schema:begin -->\n"
    "| column | meaning |\n|---|---|\n"
    "| `workload` | scene name |\n"
    "| `frames` | frames simulated |\n"
    "| `energyPj` | energy |\n"
    "<!-- analyze:csv-schema:end -->\n")
BASE_TREE = {
    "src/sim/report.cc": BASE_REPORT,
    "src/gpu/raster.cc": ('#include "common/types.hh"\n'
                          'void f() { stats.inc("raster.tiles"); }\n'),
    "README.md": BASE_README,
}

# Per rule: (tree overlay that MUST fire, overlay that MUST stay
# clean). Files map to content; None deletes the base file.
FIXTURES = {
    # Acceptance injection: the forbidden crc -> sim edge.
    "layer-dag": (
        {"src/crc/crc32.cc": '#include "sim/report.hh"\n'},
        {"src/crc/crc32.cc": '#include "common/types.hh"\n'},
    ),
    # Acceptance injection: a common <-> crc include cycle.
    "layer-cycle": (
        {"src/common/types.hh": ('#ifndef REGPU_COMMON_TYPES_HH\n'
                                 '#define REGPU_COMMON_TYPES_HH\n'
                                 '#include "crc/crc32.hh"\n#endif\n'),
         "src/crc/crc32.hh": ('#ifndef REGPU_CRC_CRC32_HH\n'
                              '#define REGPU_CRC_CRC32_HH\n'
                              '#include "common/types.hh"\n#endif\n')},
        {"src/crc/crc32.hh": ('#ifndef REGPU_CRC_CRC32_HH\n'
                              '#define REGPU_CRC_CRC32_HH\n'
                              '#include "common/types.hh"\n#endif\n')},
    ),
    "header-guard": (
        {"src/gpu/foo.hh": "struct Foo {};\n"},
        {"src/gpu/foo.hh": ("/** Long doc comment\n * spanning\n"
                            " * several lines.\n */\n"
                            "#ifndef REGPU_GPU_FOO_HH\n"
                            "#define REGPU_GPU_FOO_HH\n"
                            "struct Foo {};\n#endif\n"),
         "src/gpu/bar.hh": "#pragma once\nstruct Bar {};\n"},
    ),
    "include-cc": (
        {"tests/test_x.cc": '#include "gpu/raster.cc"\n'},
        {"tests/test_x.cc": '#include "gpu/raster.hh"\n'},
    ),
    # Acceptance injection: a phantom stat name.
    "stat-name": (
        {"tests/test_stats.cc":
         'TEST(S, X) { EXPECT_EQ(counter("raster.phantom"), 1u); }\n',
         "README.md": BASE_README.replace(
             "| `frames` | frames simulated |\n",
             "| `frames` | frames simulated |\n\n") +
         "\nSee `raster.ghostStat` for details.\n"},
        {"tests/test_stats.cc":
         ('TEST(S, X) {\n'
          '    s.inc("raster.local");\n'
          '    EXPECT_EQ(counter("raster.tiles"), 1u);\n'
          '    EXPECT_EQ(counter("raster.local"), 1u);\n'
          '    EXPECT_EQ(counter("unrelated.dotted.name"), 0u);\n}\n'),
         "bench/paper_figures.cc":
         'double f() { return r.stats.counter("raster.tiles"); }\n',
         HARNESS:
         ('#include "layer_trace.hh"\n'
          'u64 f() { return counter("raster.tiles")\n'
          '    + counter("metric.frames_per_s"); }\n'
          '// "raster.ghostInComment" is only prose\n')},
    ),
    # A column dropped from the table is still in the README.
    "csv-schema": (
        {"src/sim/report.cc": BASE_REPORT.replace(
            '    {"frames", [](auto &os, auto &r) { os << r.frames; }},\n',
            '')},
        {},
    ),
    "raw-mutex": (
        {"src/timing/pool.cc":
         "#include <mutex>\nstd::mutex m;\n"
         "void f() { std::lock_guard<std::mutex> lock(m); }\n"},
        {"src/timing/pool.cc":
         '#include "common/thread_annotations.hh"\n'
         "regpu::Mutex m;\nvoid f() { regpu::MutexLock lock(m); }\n",
         "tests/test_pool.cc":
         "#include <mutex>\nstd::mutex m;  // tests may lock freely\n"},
    ),
    # Acceptance injection: a parsed flag the README never mentions.
    "cli-flag-doc": (
        {"examples/suite_cli.cpp":
         'void f(const std::string &arg) {\n'
         '    if (arg == "--ghost-flag") {}\n}\n'},
        {"examples/suite_cli.cpp":
         ('void f(const std::string &arg) {\n'
          '    if (arg == "--frames") {}\n'
          '    // "--phantom" only lives in this comment\n'
          '    usage("usage: [--embedded N] text");\n}\n'),
         "README.md": BASE_README +
         "\nFlags: `--frames N` selects the frame count.\n"},
    ),
}


def fixture_tree(overlay: Dict[str, str]) -> Tree:
    merged = dict(BASE_TREE)
    for path, content in overlay.items():
        if content is None:
            merged.pop(path, None)
        else:
            merged[path] = content
    return {path: make_file(path, raw)
            for path, raw in merged.items()}


def self_test() -> int:
    failures = []

    def check(cond: bool, what: str):
        (failures.append(what) if not cond else None)

    base_noise = {v.rule for v in analyze_tree(fixture_tree({}))}
    check(not base_noise, f"base fixture tree not clean: {base_noise}")

    for rule in RULES:
        check(rule.rule_id in FIXTURES,
              f"{rule.rule_id}: missing fixture")
    for rule_id, (bad, good) in FIXTURES.items():
        bad_hits = [v for v in analyze_tree(fixture_tree(bad))
                    if v.rule == rule_id]
        check(len(bad_hits) >= 1,
              f"{rule_id}: violating fixture did not fire")
        good_hits = [v for v in analyze_tree(fixture_tree(good))
                     if v.rule == rule_id]
        check(not good_hits,
              f"{rule_id}: clean fixture fired: {good_hits}")

    # The layer-cycle injection fires BOTH rules: the edge is
    # forbidden and cyclic. Pin that so the two rules stay
    # independent.
    cyc = analyze_tree(fixture_tree(FIXTURES["layer-cycle"][0]))
    check(any(v.rule == "layer-dag" for v in cyc),
          "cycle injection should also violate layer-dag")

    # Commented-out includes never make edges.
    quiet = {"src/crc/crc32.cc":
             '// #include "sim/report.hh"\n'
             '/* #include "sim/report.hh" */\n'}
    check(not [v for v in analyze_tree(fixture_tree(quiet))
               if v.rule in ("layer-dag", "layer-cycle")],
          "commented-out include made a layer edge")

    # Suppressions: same-line allow with reason, policed when stale.
    allowed = {"src/crc/crc32.cc":
               '#include "sim/report.hh"  '
               '// analyze:allow(layer-dag): fixture exception\n'}
    got = analyze_tree(fixture_tree(allowed))
    check(not [v for v in got if v.rule == "layer-dag"],
          "analyze:allow ignored")
    stale = {"src/crc/crc32.cc":
             '#include "common/types.hh"  '
             '// analyze:allow(layer-dag): stale\n'}
    check(any(v.rule == "analyze-suppression"
              for v in analyze_tree(fixture_tree(stale))),
          "stale analyze:allow not reported")
    # The benchmark harness on its own: a phantom read fires there.
    phantom = {HARNESS: 'u64 v = counter("raster.phantom");\n'}
    check(any(v.rule == "stat-name" and v.path == HARNESS
              for v in analyze_tree(fixture_tree(phantom))),
          "phantom stat in the benchmark harness not caught")

    # A phantom read in a bench or an example fires there too.
    for reader in ("bench/paper_figures.cc", "examples/suite_cli.cpp"):
        phantom = {reader: 'u64 v = r.stats.counter("raster.phantom");\n'}
        check(any(v.rule == "stat-name" and v.path == reader
                  for v in analyze_tree(fixture_tree(phantom))),
              f"phantom stat read in {reader} not caught")

    # Markdown same-line suppression (HTML comment).
    md_allowed = {"README.md": BASE_README +
                  "\nSee `raster.ghostStat` "
                  "<!-- analyze:allow(stat-name): historical name "
                  "kept for papers --> for details.\n"}
    check(not [v for v in analyze_tree(fixture_tree(md_allowed))
               if v.rule == "stat-name"],
          "markdown analyze:allow ignored")

    # csv-schema: the dropped table column is named...
    check(any(v.rule == "csv-schema" and "`frames`" in v.message
              for v in analyze_tree(fixture_tree(
                  FIXTURES["csv-schema"][0]))),
          "column dropped from the table not named")
    # ...a README column the table never had fires...
    ghost = {"README.md": BASE_README.replace(
        "| `workload` | scene name |\n",
        "| `workload` | scene name |\n"
        "| `ghostColumn` | no longer emitted |\n")}
    check(any(v.rule == "csv-schema" and "ghostColumn" in v.message
              for v in analyze_tree(fixture_tree(ghost))),
          "ghost README column not caught")
    # ...a table column the README lacks fires...
    undocumented = {"README.md": BASE_README.replace(
        "| `energyPj` | energy |\n", "")}
    check(any(v.rule == "csv-schema" and "energyPj" in v.message
              for v in analyze_tree(fixture_tree(undocumented))),
          "undocumented table column not caught")
    # ...and so does a hand-written JSON key outside the identity
    # names and the declared identity extras.
    extra_key = {"src/sim/report.cc": BASE_REPORT.replace(
        '    os << ",\\"seed\\":" << seed;\n',
        '    os << ",\\"seed\\":" << seed;\n'
        '    os << ",\\"bonusKey\\":" << 1;\n')}
    check(any(v.rule == "csv-schema" and "bonusKey" in v.message
              for v in analyze_tree(fixture_tree(extra_key))),
          "undeclared JSON key not caught")
    # A report.cc without the table cannot be checked: that fires too.
    no_list = {"src/sim/report.cc": BASE_REPORT.replace(
        "resultColumns[] = {", "columns[] = {")}
    check(any(v.rule == "csv-schema" and "could not parse" in v.message
              for v in analyze_tree(fixture_tree(no_list))),
          "unparsable column table not reported")
    # ...and a missing README table is itself a violation.
    no_table = {"README.md": "## Output schema\n\nprose only\n"}
    check(any(v.rule == "csv-schema" and "lacks" in v.message
              for v in analyze_tree(fixture_tree(no_table))),
          "missing README csv table not caught")

    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL: {f}", file=sys.stderr)
        return 1
    print(f"analyze.py self-test OK ({len(RULES)} rules, "
          f"{len(FIXTURES)} fixture pairs)")
    return 0


# --- CLI --------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="regpu whole-repo architecture analyzer "
                    "(stdlib-only)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: the script's parent)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded rule fixtures and exit")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.list_rules:
        for rule in RULES:
            print(f"{rule.rule_id:24} {rule.summary}")
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    violations = analyze_tree(load_tree(root))
    for v in violations:
        print(v)
    if violations:
        print(f"analyze.py: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print("analyze.py: tree clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
