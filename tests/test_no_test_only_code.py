"""Guards on the package's shape, checked by parsing the sources with ``ast``.

1. Every top-level definition in ``horizon_ocr_python_ray/`` must be used
   by non-test code: the package itself, ``__ray_entry__.py``,
   ``bench.py``, ``tools/`` or ``perfbench/``. A use is resolved to the
   ``(module, name)`` it refers to:

   - a bare name refers to the module's own definition, or to what its
     ``import`` / ``from X import name as alias`` binds (imports anywhere
     in the file count, function-local ones included);
   - ``module.attr`` chains resolve through module aliases and submodules;
   - a name a package re-exports, by import or through its lazy
     ``__getattr__``, resolves to the module that defines it.

   A name listed in a package's ``__all__`` is public API and counts as
   used. Any other import alone is not a use, nor is a mention in a
   docstring or comment. Uses inside a definition's own body do not count.
   Left out: uses by string (``getattr(module, "name")``) are not seen,
   and a local variable that shares its name with a definition of the
   same module counts as a use of it. The allowlist names the few
   definitions kept on purpose for tests.

2. No map stage in the package runs on an actor pool: ``map_batches``
   gets a function, never a class, and no ``concurrency=``, ``compute=``
   or constructor arguments. Warm per-process state goes through
   ``state.worker.worker_state`` instead; an actor pool holds a CPU that
   the read tasks of a 1-CPU session need.

3. No function in the package takes a parameter that picks a plan by
   hand: ``plan``, ``*_plan``, ``drop_repr``, ``mg_capacity``,
   ``fold_vocab_max`` or ``texts_sink``. A plan choice reads its cap
   constant (a module-level ``*_MAX``) against the size it measures, so
   every caller runs the plan that fits; a test reaches the other plan
   by monkeypatching that cap.

4. No ``take_all()`` in the package outside ``functions/collect.py``
   unless its line carries a ``# bounded: <why>`` note: a driver
   collect goes through ``collect.fold_capped`` under a module cap, or
   says why its size is bounded.

5. Joins in the query pipelines go through ``stages.joins.lookup_join``,
   which picks broadcast or hash join by the build side's measured size:
   no ``safe_join(`` or ``Dataset.join(`` call in ``pipelines/``, and no
   package function compares a ``plan`` (or ``*_plan``) local to a
   string.

6. One term rule: outside ``functions/textstats.py`` no package code
   splits text into terms by itself. It calls no Arrow splitter
   (``split_pattern_regex``, ``utf8_split_whitespace``,
   ``ascii_split_whitespace``) and no bare ``.split()``, and it does not
   lowercase what it splits: no ``.lower()`` / ``utf8_lower`` inside a
   split's or a ``tokens`` / ``terms`` call's arguments, or on the items
   of a loop or comprehension over ``tokens(...)`` / ``terms(...)``.
   A bare ``.split()`` on a string literal (a word list) or as the
   argument of ``" ".join(...)`` (a whitespace collapse, which renders
   text rather than reading terms) is not a split into terms. Left out:
   a lowering or split reached through a helper or a variable is not
   seen.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "horizon_ocr_python_ray"

#: Definitions that only tests use, kept on purpose: name → reason.
#: Each is an oracle a batch kernel is compared against, or a fixture.
ALLOWED = {
    "__all__": "star-import list, read by the import system",
    "__getattr__": "lazy re-export hook, called by the import system",
    "hamming64": "oracle: brute-force distance the SimHash near-dup plans are compared to",
    "simhash64": "oracle: per-document form the batched SimHash kernel is compared to",
    "canonicalize_url": "oracle: scalar form the vectorized URL canonicalizer is compared to",
    "parse_warc_file_bytes": "scalar harness: parses one WARC file's bytes for the format tests",
    "write_warc_dir": "fixture: driver-side WARC writer the read-path tests build inputs with",
    "gen_media_probe_table": "oracle: driver-side form the distributed media fixture is compared to",
    "gen_audio_probe_table": "fixture: driver-side audio probe table the energy-kernel test feeds",
    "_decode_audio": "float-waveform member of the MEDIA_SCHEMA _decode_* family",
    "hll_estimate": "reads HLL registers back; tests check the registers against the true count",
    "ngram_jaccard_verify": "public entry point: exact shingle-Jaccard verify of caller-supplied "
                            "candidate pairs; the driver queries build their own pairs",
}

#: Functions that split text by hand on purpose: "path:function" → reason.
TERM_RULE_ALLOWED = {
    "stages/reocr.py:_line_hypothesis":
        "OCR-line word count with Python str.split, as in "
        "tools/reocr_reference.py:_hypothesis, the independent reference "
        "the re-OCR expected values come from",
}

#: Parameter names that would let a caller force a plan (besides
#: ``plan`` and any ``*_plan``).
PLAN_PARAMS = {"plan", "drop_repr", "mg_capacity", "fold_vocab_max", "texts_sink"}

#: ``map_batches`` keywords that only an actor-pool stage takes.
ACTOR_POOL_KEYWORDS = {"concurrency", "compute", "fn_constructor_args",
                       "fn_constructor_kwargs"}


def _sources() -> list[Path]:
    files = sorted(PACKAGE.rglob("*.py"))
    files += [ROOT / "__ray_entry__.py", ROOT / "bench.py"]
    for d in ("tools", "perfbench"):
        files += sorted((ROOT / d).glob("*.py"))
    return files


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n for t in targets for n in _bound_names(t)]
    return []


def _bound_names(target: ast.expr) -> list[str]:
    """Names an assignment target binds: ``x`` and the names unpacked by
    ``x, (y, *z)``, but not ``obj`` in ``obj.attr`` or ``obj[i]``."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [n for e in target.elts for n in _bound_names(e)]
    if isinstance(target, ast.Starred):
        return _bound_names(target.value)
    return []


def _str_const(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class _Module:
    """One parsed source file: its dotted name, top-level definitions and
    import bindings (local name → ``("mod", module)`` for ``import X`` or
    ``("from", module, name)`` for ``from module import name``)."""

    def __init__(self, path: Path) -> None:
        parts = list(path.relative_to(ROOT).with_suffix("").parts)
        self.is_package = parts[-1] == "__init__"
        self.name = ".".join(parts[:-1] if self.is_package else parts)
        self.path = path
        self.tree = ast.parse(path.read_text(), filename=str(path))
        self.defs = {n: stmt for stmt in self.tree.body for n in _defined_names(stmt)}
        self.binds: dict[str, tuple] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.asname:
                        self.binds[a.asname] = ("mod", a.name)
                    else:
                        top = a.name.split(".")[0]
                        self.binds[top] = ("mod", top)
            elif isinstance(node, ast.ImportFrom):
                src = self.absolute(node)
                for a in node.names:
                    if a.name != "*":
                        self.binds[a.asname or a.name] = ("from", src, a.name)
        self.lazy = self._lazy_exports()

    def absolute(self, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        pkg = self.name.split(".")
        if not self.is_package:
            pkg = pkg[:-1]
        pkg = pkg[:len(pkg) - (node.level - 1)]
        return ".".join(pkg + ([node.module] if node.module else []))

    def _lazy_exports(self) -> dict[str, tuple]:
        """Names a package's ``__getattr__`` serves: each ``if name == ...``
        / ``if name in (...)`` branch imports the name itself, or imports a
        module and returns ``getattr(module, name)``."""
        fn = self.defs.get("__getattr__")
        out: dict[str, tuple] = {}
        if not isinstance(fn, ast.FunctionDef):
            return out
        for branch in ast.walk(fn):
            if not isinstance(branch, ast.If):
                continue
            names = [s for s in map(_str_const, ast.walk(branch.test)) if s]
            for imp in branch.body:
                if not isinstance(imp, ast.ImportFrom):
                    continue
                src = self.absolute(imp)
                for a in imp.names:
                    if a.name in names:
                        out[a.name] = ("from", src, a.name)
                    else:
                        out.update((n, ("from", f"{src}.{a.name}", n)) for n in names)
        return out


class _Index:
    def __init__(self) -> None:
        self.modules = {m.name: m for m in map(_Module, _sources())}
        self.package = {n: m for n, m in self.modules.items()
                        if m.path.is_relative_to(PACKAGE)}

    def resolve(self, module: str, name: str) -> tuple[str, str] | None:
        """The package definition ``module.name`` refers to, following
        re-exports, or None if it names none."""
        seen = set()
        while (module, name) not in seen:
            seen.add((module, name))
            m = self.package.get(module)
            if m is None:
                return None
            if name in m.defs:
                return module, name
            bind = m.binds.get(name) or m.lazy.get(name)
            if bind is None or bind[0] != "from":
                return None
            module, name = bind[1], bind[2]
        return None

    def as_module(self, m: _Module, node: ast.expr) -> str | None:
        """The module an expression names (an alias or a submodule chain)."""
        if isinstance(node, ast.Name):
            bind = m.binds.get(node.id)
            if bind is None or node.id in m.defs:
                return None
            if bind[0] == "mod":
                return bind[1]
            sub = f"{bind[1]}.{bind[2]}"
            return sub if sub in self.modules else None
        if isinstance(node, ast.Attribute):
            base = self.as_module(m, node.value)
            if base and f"{base}.{node.attr}" in self.modules:
                return f"{base}.{node.attr}"
        return None

    def uses(self, m: _Module, node: ast.AST) -> set[tuple[str, str]]:
        out = set()
        for n in ast.walk(node):
            got = None
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                if n.id in m.defs:
                    got = (m.name, n.id)
                elif m.binds.get(n.id, ("",))[0] == "from":
                    got = self.resolve(*m.binds[n.id][1:])
            elif isinstance(n, ast.Attribute):
                mod = self.as_module(m, n.value)
                got = self.resolve(mod, n.attr) if mod else None
            if got:
                out.add(got)
        return out

    def scan(self) -> tuple[dict[tuple[str, str], str], set[tuple[str, str]]]:
        """(package definition → "path:line", definitions used outside
        their own body anywhere in the non-test sources)."""
        defs = {(m.name, n): f"{m.path.relative_to(ROOT)}:{stmt.lineno}"
                for m in self.package.values() for n, stmt in m.defs.items()}
        used: set[tuple[str, str]] = set()
        for m in self.package.values():
            # a package's public API: what its ``__all__`` exports
            exported = m.defs.get("__all__")
            if exported is not None:
                used |= {self.resolve(m.name, s) for s in
                         map(_str_const, ast.walk(exported.value)) if s} - {None}
        for m in self.modules.values():
            for stmt in m.tree.body:
                own = {(m.name, n) for n in _defined_names(stmt)}
                used |= self.uses(m, stmt) - own
        return defs, used


def test_every_package_definition_has_a_non_test_user():
    defs, used = _Index().scan()
    unused = sorted(f"{where} {mod}.{name}" for (mod, name), where in defs.items()
                    if (mod, name) not in used and name not in ALLOWED)
    assert not unused, "defined but used only by tests (delete, or allowlist with a reason):\n" \
        + "\n".join(unused)


def test_allowlist_names_are_still_test_only():
    defs, used = _Index().scan()
    stale = sorted(n for n in ALLOWED
                   if all(d in used for d in defs if d[1] == n)
                   or not any(d[1] == n for d in defs))
    assert not stale, f"allowlisted names that are gone or now used: {stale}"


def test_no_actor_pool_map_stage():
    index = _Index()
    bad = []
    for m in index.package.values():
        classes = {c.name for c in ast.walk(m.tree) if isinstance(c, ast.ClassDef)}
        for call in ast.walk(m.tree):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "map_batches"):
                continue
            fn = call.args[0] if call.args else next(
                (k.value for k in call.keywords if k.arg == "fn"), None)
            target = None
            if isinstance(fn, ast.Name):
                bind = m.binds.get(fn.id, ("",))
                target = (index.resolve(*bind[1:]) if bind[0] == "from"
                          else (m.name, fn.id))
            is_class = (isinstance(fn, ast.Name) and fn.id in classes) or (
                target is not None and target[0] in index.package
                and isinstance(index.package[target[0]].defs.get(target[1]), ast.ClassDef))
            keywords = {k.arg for k in call.keywords} & ACTOR_POOL_KEYWORDS
            if is_class or keywords:
                bad.append(f"{m.path.relative_to(ROOT)}:{call.lineno} "
                           f"{'class ' if is_class else ''}{sorted(keywords)}")
    assert not bad, "actor-pool map stages (use a task function + worker_state):\n" \
        + "\n".join(bad)


def test_no_plan_keyword():
    bad = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
            hits = [n for n in names if n in PLAN_PARAMS or n.endswith("_plan")]
            if hits:
                bad.append(f"{path.relative_to(ROOT)}:{fn.lineno} {hits}")
    assert not bad, "plan keywords (compare the measured size with a cap instead):\n" \
        + "\n".join(bad)


def _take_all_sites(tree: ast.AST, lines: list[str]):
    """(enclosing function, line, has a ``# bounded:`` note) for every
    ``.take_all()`` call."""
    out = []

    def visit(node: ast.AST, fn: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = fn
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr == "take_all"):
                ends = {child.func.end_lineno, child.end_lineno}
                out.append((fn, child.func.end_lineno,
                            any("# bounded:" in lines[n - 1] for n in ends)))
            visit(child, name)

    visit(tree, "<module>")
    return out


def test_no_unbounded_driver_collect():
    bad = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        if rel == "functions/collect.py":
            continue
        text = path.read_text()
        for fn, line, noted in _take_all_sites(ast.parse(text), text.splitlines()):
            if not noted:
                bad.append(f"{rel}:{line} in {fn}")
    assert not bad, ("take_all() without a '# bounded: <why>' note (collect "
                     "through functions/collect.fold_capped instead):\n" + "\n".join(bad))


def test_pipeline_joins_go_through_lookup_join():
    bad = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and rel.startswith("pipelines/"):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                # Dataset.join takes join_type; str.join and os.path.join do not
                if name == "safe_join" or (
                        name == "join" and any(k.arg == "join_type" for k in node.keywords)):
                    bad.append(f"{rel}:{node.lineno} {name}(")
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                plan = [n.id for n in sides if isinstance(n, ast.Name)
                        and (n.id == "plan" or n.id.endswith("_plan"))]
                if plan and any(_str_const(n) is not None for n in sides):
                    bad.append(f"{rel}:{node.lineno} {plan[0]} compared to a string")
    assert not bad, "hand-picked join plans (call stages.joins.lookup_join):\n" \
        + "\n".join(bad)


_SPLITTERS = {"split_pattern_regex", "utf8_split_whitespace", "ascii_split_whitespace"}
_TERM_FNS = {"tokens", "terms"}
_LOWER = {"lower", "utf8_lower", "casefold"}


def _call_name(node: ast.AST) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def _receiver(call: ast.Call) -> ast.AST | None:
    """``x`` of a method call ``x.f(...)``; None for a plain ``f(...)``."""
    return call.func.value if isinstance(call.func, ast.Attribute) else None


def _lowers(node: ast.AST) -> bool:
    return any(_call_name(n) in _LOWER for n in ast.walk(node))


def _term_rule_breaks(tree: ast.AST):
    """(enclosing function, line, what) for every hand-made term split."""
    collapses = {id(a) for n in ast.walk(tree)
                 if _call_name(n) == "join" and _str_const(_receiver(n)) is not None
                 for a in n.args}
    out = []

    def visit(node: ast.AST, fn: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = _call_name(child)
            what = None
            if name in _SPLITTERS:
                what = f"{name}("
            elif (name == "split" and not child.args and not child.keywords
                  and _receiver(child) is not None
                  and _str_const(_receiver(child)) is None
                  and id(child) not in collapses):
                what = "bare .split()"
            elif name in _TERM_FNS | {"split", "split_pattern"} and any(
                    _lowers(a) for a in child.args):
                what = f"{name}() of lowered text"
            elif isinstance(child, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                                    ast.DictComp)):
                over = any(_call_name(g.iter) in _TERM_FNS for g in child.generators)
                elts = [child.key, child.value] if isinstance(child, ast.DictComp) \
                    else [child.elt]
                if over and any(_lowers(e) for e in elts):
                    what = "lowers the items of tokens()/terms()"
            elif (isinstance(child, ast.For) and _call_name(child.iter) in _TERM_FNS
                  and any(_lowers(b) for b in child.body)):
                what = "lowers the items of tokens()/terms()"
            if what:
                out.append((fn, child.lineno, what))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)

    visit(tree, "<module>")
    return out


def test_one_term_rule():
    bad = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        if rel == "functions/textstats.py":
            continue
        for fn, line, what in _term_rule_breaks(ast.parse(path.read_text())):
            if f"{rel}:{fn}" not in TERM_RULE_ALLOWED:
                bad.append(f"{rel}:{line} in {fn}: {what}")
    assert not bad, ("terms split or lowered outside functions/textstats.py "
                     "(use textstats.flat_terms or textstats.terms):\n" + "\n".join(bad))


def test_term_rule_allowlist_is_still_needed():
    used = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        used |= {f"{rel}:{fn}" for fn, _, _ in _term_rule_breaks(ast.parse(path.read_text()))}
    assert set(TERM_RULE_ALLOWED) <= used, sorted(set(TERM_RULE_ALLOWED) - used)
