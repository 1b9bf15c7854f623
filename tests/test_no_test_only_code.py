"""Guard against regrowth of test-only code.

Every top-level definition in ``horizon_ocr_python_ray/`` must be used
by non-test code: the package itself, ``__ray_entry__.py``, ``bench.py``,
``tools/`` or ``perfbench/``. A use is any ``Name``, ``Attribute`` or
import alias outside the definition's own body, found by parsing with
``ast`` — so a mention in a docstring or comment is not a use. The
allowlist names the few definitions kept on purpose for tests.

Uses are matched by bare name, not resolved to the defining module: a
dead definition whose name also appears elsewhere (another module's
function, any object's attribute, a local variable) counts as used. So
the guard catches definitions whose name no non-test source mentions;
a dead ``run`` or ``normalize`` can slip through it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "horizon_ocr_python_ray"

#: Definitions that only tests use, kept on purpose: name → reason.
#: Oracles and fixtures stay; the entries marked "not an oracle" are
#: test-only code still to delete together with their tests.
ALLOWED = {
    "__all__": "star-import list, read by the import system",
    "__getattr__": "lazy re-export hook, called by the import system",
    "hamming64": "oracle: brute-force distance the SimHash near-dup plans are compared to",
    "simhash64": "oracle: per-document form the batched SimHash kernel is compared to",
    "_doc_tokens": "oracle: per-document form the batched LM tokenizer is compared to",
    "canonicalize_url": "oracle: scalar form the vectorized URL canonicalizer is compared to",
    "parse_warc_file_bytes": "scalar harness: parses one WARC file's bytes for the format tests",
    "write_warc_dir": "fixture: driver-side WARC writer the read-path tests build inputs with",
    "gen_media_probe_table": "oracle: driver-side form the distributed media fixture is compared to",
    "gen_audio_probe_table": "fixture: driver-side audio probe table the energy-kernel test feeds",
    "_decode_audio": "float-waveform member of the MEDIA_SCHEMA _decode_* family",
    "hll_estimate": "reads HLL registers back; tests check the registers against the true count",
    "near_dup_clusters_distributed": "not an oracle: the scale fall-through the near-dup cap plans for",
    "apply_reocr": "not an oracle: per-page re-OCR records that only tests read",
    "detect_script": "not an oracle: scalar wrapper of the re-OCR pixel router",
    "crop_confidence": "not an oracle: scalar wrapper of the re-OCR first-pass confidence",
    "crop_to_content": "not an oracle: M12 kernel that no stage applies",
}


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


def _used_names(node: ast.AST) -> set[str]:
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.alias):
            used.update(n.name.split("."))
    return used


def _scan() -> tuple[dict[str, str], set[str]]:
    """(package definition name → "path:line", names used outside their
    own definition anywhere in the non-test sources)."""
    defs: dict[str, str] = {}
    used: set[str] = set()
    for path in _sources():
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = _defined_names(stmt)
            if path.is_relative_to(PACKAGE):
                for name in own:
                    defs.setdefault(name, f"{path.relative_to(ROOT)}:{stmt.lineno}")
            used |= _used_names(stmt) - set(own)
    return defs, used


def test_every_package_definition_has_a_non_test_user():
    defs, used = _scan()
    unused = sorted(f"{where} {name}" for name, where in defs.items()
                    if name not in used and name not in ALLOWED)
    assert not unused, "defined but used only by tests (delete, or allowlist with a reason):\n" \
        + "\n".join(unused)


def test_allowlist_names_are_still_test_only():
    defs, used = _scan()
    stale = sorted(n for n in ALLOWED if n not in defs or n in used)
    assert not stale, f"allowlisted names that are gone or now used: {stale}"
