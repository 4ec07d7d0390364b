"""Importing the package stays cheap: it pulls in no process-pool machinery,
and no module of the package other than ``__init__``, nor any test module,
imports a name it never reads.  A machine is trimmed and fingerprinted only
in ``construction.prepare``; only trimming and enumeration prune by distance
to a final state, and only ``accepts`` traces subsets: the package itself
enumerates no language.  Every spec is built by ``construction._swept_spec``
in two window sweeps, and only the read side hashes a spec's factors; a
machine's successors are read off its one table, never off a second index
or its transition list.
The package ships the pipeline and what the benchmark imports, not the
path-level definitions or the sample inference the test oracles keep
(tests/conftest.py)."""

import ast
import os
import pathlib
import subprocess
import sys

import sltkit

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ("Path", "enumerate_m_paths", "canonical_decomposition", "encode_m_path",
           "_encode_blocks", "encode_path_width2", "_find_path", "_reference_main_sets",
           "infer_slt")


def test_import_loads_no_process_pool():
    probe = ("import sys, sltkit; "
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
             "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def unread_imports(source: str) -> list[str]:
    """The names a module binds by import and never reads.  ``__future__``
    imports bind no name; ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in read]


def test_modules_read_every_name_they_import():
    modules = [*sorted((SRC / "sltkit").glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]
    unread = {path.name: unread_imports(path.read_text())
              for path in modules if path.name != "__init__.py"}
    assert {name: names for name, names in unread.items() if names} == {}


def test_unread_import_scan_finds_an_unread_name():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from typing import Optional, Sequence\nx: Optional[int] = os.sep\n")
    assert unread_imports(source) == ["line 3: Sequence"]


def call_sites(source: str, names: set[str]) -> list[str]:
    """The calls a module makes to ``names``, by plain or attribute name, as
    ``outer:name``, where ``outer`` is the top-level function or class the
    call is in, or ``<module>``."""
    sites = []
    for top in ast.parse(source).body:
        outer = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    sites.append(f"{outer}:{name}")
    return sorted(sites)


def test_only_prepare_trims_and_fingerprints():
    sites = {path.name: call_sites(path.read_text(), {"trim", "nfa_fingerprint"})
             for path in sorted((SRC / "sltkit").glob("*.py"))}
    assert {name: calls for name, calls in sites.items() if calls} == {
        "construction.py": ["prepare:nfa_fingerprint", "prepare:trim"]}


def test_only_trim_and_enumeration_prune_by_distance():
    # the product search stops at its horizon and prunes nothing
    sites = {path.name: call_sites(path.read_text(), {"_distance_to_final"})
             for path in sorted((SRC / "sltkit").glob("*.py"))}
    assert {name: calls for name, calls in sites.items() if calls} == {
        "automata.py": ["enumerate_language:_distance_to_final", "trim:_distance_to_final"]}


def test_only_membership_traces_subsets_and_nothing_enumerates():
    # the build's short words and encodings are walks of its context
    # automaton; enumeration stays exported for the benchmark and the tests
    sites = {path.name: call_sites(path.read_text(), {"enumerate_language", "subset_trace"})
             for path in sorted((SRC / "sltkit").glob("*.py"))}
    assert {name: calls for name, calls in sites.items() if calls} == {
        "automata.py": ["accepts:subset_trace"]}
    imported = {path.name for path in sorted((SRC / "sltkit").glob("*.py"))
                if {"enumerate_language", "subset_trace"} & {
                    alias.name for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.ImportFrom) for alias in node.names}}
    assert imported == {"__init__.py"}


def test_every_spec_comes_from_the_one_window_sweep():
    sites = {path.name: call_sites(path.read_text(), {"_swept_spec"})
             for path in sorted((SRC / "sltkit").glob("*.py"))}
    assert {name: calls for name, calls in sites.items() if calls} == {
        "construction.py": ["_main_spec:_swept_spec", "_tightest_spec:_swept_spec",
                            "medvedev_width2:_swept_spec"]}


def test_every_spec_runs_two_window_sweeps():
    # prefixes, then factors with the suffixes as their tails; no reversed sweep
    sites = {path.name: call_sites(path.read_text(), {"_window_words"})
             for path in sorted((SRC / "sltkit").glob("*.py"))}
    assert {name: calls for name, calls in sites.items() if calls} == {
        "construction.py": ["_swept_spec:_window_words"] * 2}


def test_call_site_scan_finds_calls_anywhere():
    source = ("from . import automata\nx = automata.trim(m)\n"
              "class C:\n    def f(self):\n        return [g(trim(m)) for m in ()]\n")
    assert call_sites(source, {"trim"}) == ["<module>:trim", "C:trim"]


def attribute_reads(source: str, attr: str) -> list[str]:
    """The reads of attribute ``attr`` in a module, as the top-level
    function, or ``Class.method``, they are in, or ``<module>``."""
    sites = []
    for top in ast.parse(source).body:
        outer = getattr(top, "name", "<module>")
        scopes = ([(f"{outer}.{node.name}" if hasattr(node, "name") else outer, node)
                   for node in top.body]
                  if isinstance(top, ast.ClassDef) else [(outer, top)])
        sites.extend(where for where, scope in scopes for node in ast.walk(scope)
                     if isinstance(node, ast.Attribute) and node.attr == attr
                     and isinstance(node.ctx, ast.Load))
    return sorted(sites)


def test_only_the_read_side_hashes_the_factors():
    # StreamRecognizer.feed reads the recognizer's own copy, taken in __init__
    sites = {path.name: attribute_reads(path.read_text(), "_factor_set")
             for path in sorted((SRC / "sltkit").glob("*.py"))}
    assert {name: reads for name, reads in sites.items() if reads} == {
        "slt.py": ["SltSpec.accepts", "StreamRecognizer.__init__", "StreamRecognizer.feed"]}


def test_only_machine_builders_read_the_transition_list():
    # everything else reads a machine's one successor index, Nfa.table
    sites = {path.name: sorted(set(attribute_reads(path.read_text(), "transitions")))
             for path in sorted((SRC / "sltkit").glob("*.py"))}
    assert {name: reads for name, reads in sites.items() if reads} == {
        "automata.py": ["Nfa.__post_init__", "relabel", "totalize", "trim", "union_nfa"],
        "construction.py": ["nfa_fingerprint"]}


def test_no_second_successor_index_or_target_form():
    sources = {path.name: path.read_text() for path in sorted((SRC / "sltkit").glob("*.py"))}
    assert {name: sorted(definitions(source) & {"nfa_table", "_step", "_contexts", "Context"})
            for name, source in sources.items()} == {name: [] for name in sources}
    assert {name: attribute_reads(source, "_step") for name, source in sources.items()} == {
        name: [] for name in sources}


def test_attribute_read_scan_skips_stores():
    source = ("x = a.s\nclass C:\n    t = a.s\n    def f(self):\n"
              "        self.s = 1\n        return [g.s for g in ()]\n")
    assert attribute_reads(source, "s") == ["<module>", "C", "C.f"]


def definitions(source: str) -> set[str]:
    """The names a module defines: every function and class, at any depth,
    and every top-level assignment target."""
    tree = ast.parse(source)
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def sltkit_imports(source: str) -> set[str]:
    """The names a module imports from the ``sltkit`` package."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "sltkit"
            for alias in node.names}


def test_package_defines_no_path_level_oracles():
    defined = {path.name: definitions(path.read_text())
               for path in sorted((SRC / "sltkit").glob("*.py"))}
    assert {"medvedev_main", "_least_walk", "Source"} <= defined["construction.py"]
    assert {"Nfa", "DEFAULT_CAP"} <= defined["automata.py"]
    assert {name: sorted(names & set(ORACLES)) for name, names in defined.items()
            if names & set(ORACLES)} == {}
    assert [name for name in ORACLES if hasattr(sltkit, name)] == []


def test_package_exports_what_the_benchmark_imports():
    imported = set().union(*(sltkit_imports(path.read_text())
                             for path in sorted((ROOT / "bench").glob("*.py"))))
    assert {"relabel", "slt_to_nfa", "union_nfa", "word_set_nfa", "nfa_equivalent",
            "totalize", "enumerate_language", "default_horizon"} <= imported
    assert sorted(name for name in imported if not hasattr(sltkit, name)) == []
