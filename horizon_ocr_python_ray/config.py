"""Configuration tree for the extraction engine.

Mirrors the *semantics* of the reference's YAML-loaded dataclass tree
(``/root/reference/docvision/config.py:239-316``) but is a plain dataclass
passed to Ray Data stages via ``fn_constructor_kwargs`` — no YAML, no
mutation at runtime (the reference mutates shared config during routing,
``pipeline/orchestrator.py:432-434``; we avoid that by making routing a
per-row column).

Every threshold that affects byte-identity of extracted text is a named
constant here so fixture identity survives refactors (SURVEY.md §7.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Named semantic constants (cited to the reference behaviour they preserve)
# ---------------------------------------------------------------------------

#: Minimum recognition confidence before a line is re-processed by the
#: second-pass recognizer (reference: re-OCR threshold 0.70,
#: ``/root/reference/docvision/config.py:220-227``).
REOCR_CONFIDENCE_THRESHOLD = 0.70

#: A re-processed result replaces the original only if its confidence is
#: at least this much higher (reference accept margin 0.05,
#: ``config.py:221``).
REOCR_ACCEPT_MARGIN = 0.05

#: Per-page cap on lines selected for re-processing, worst-first
#: (reference: 50 lines/page, ``ocr/targeted_reocr.py:67``, ``config.py:227``).
REOCR_MAX_LINES_PER_PAGE = 50

#: Lines whose centers overlap vertically by at least this fraction of the
#: smaller line height belong to the same reading-order row (reference
#: ``detect/text_craft.py:353-410``).
READING_ORDER_VERTICAL_OVERLAP = 0.5

#: Fuser drops single-source candidates below this confidence
#: (reference quality filter, ``kie/fuse.py:135``).
FUSE_MIN_SINGLE_SOURCE_CONFIDENCE = 0.15

#: A multi-source-agreed winner is only CONFIDENT at or above this
#: confidence (reference ``_determine_status``, ``kie/fuse.py:398``).
CONFIDENT_MIN_CONFIDENCE = 0.7

#: Cross-field consistency: |total - (subtotal + tax)| tolerance
#: (reference ``config.py:172``, ``kie/validators.py:495-558``).
CONSISTENCY_AMOUNT_TOLERANCE = 0.01

#: Table structure: a grid needs at least this many aligned columns —
#: two-column text layouts are reading-order rows, not tables (reference
#: alignment clustering requires ≥3 x-clusters,
#: ``detect/table_tatr.py:334-453``).
TABLE_MIN_COLS = 3

#: Minimum consecutive grid rows for a table.
TABLE_MIN_ROWS = 2

#: Column x-alignment tolerance in pixels (cells within this of a column
#: anchor belong to it, reference ``table_tatr.py:468-469`` ordering).
TABLE_X_TOLERANCE = 2.0

#: Over-detection filter: drop "tables" covering more than this fraction
#: of the page (reference ``detect/table_tatr.py:107-133``).
TABLE_MAX_PAGE_COVERAGE = 0.80

#: Over-detection filter: drop tables with more than this many cells when
#: they also cover more than :data:`TABLE_MAX_CELLS_COVERAGE` of the page
#: (reference ``detect/table_tatr.py:107-133``).
TABLE_MAX_CELLS = 100
TABLE_MAX_CELLS_COVERAGE = 0.50

#: HTML fast path: a text block must have at least this many characters to
#: be retained as main content (trafilatura/readability-style heuristic).
HTML_MIN_BLOCK_CHARS = 40

#: HTML fast path: blocks whose anchor-text fraction exceeds this are
#: considered navigation/boilerplate (link-density heuristic).
HTML_MAX_LINK_DENSITY = 0.33

#: Separator used to join retained blocks / lines / pages into the final
#: extracted text (reference joins line texts with "\n",
#: ``pipeline/orchestrator.py:780``). Byte-identity critical.
TEXT_JOIN_SEPARATOR = "\n"


@dataclass(frozen=True)
class HtmlConfig:
    """Fast-path DOM heuristic extraction knobs."""

    min_block_chars: int = HTML_MIN_BLOCK_CHARS
    max_link_density: float = HTML_MAX_LINK_DENSITY
    # Structural containers whose entire subtree is boilerplate.
    drop_tags: tuple[str, ...] = (
        "head", "title", "nav", "header", "footer", "aside", "script",
        "style", "noscript", "form", "button", "iframe", "svg", "template",
    )
    # Tags that delimit candidate text blocks.
    block_tags: tuple[str, ...] = (
        "p", "h1", "h2", "h3", "h4", "h5", "h6", "li", "td", "th",
        "pre", "blockquote", "div", "article", "section", "main", "body",
        "ul", "ol", "table", "tr",
    )
    # Headings are kept regardless of min_block_chars (titles are short).
    heading_tags: tuple[str, ...] = ("h1", "h2", "h3", "h4", "h5", "h6")


@dataclass(frozen=True)
class DocConfig:
    """Heavy-path (binary document / image payload) knobs."""

    reocr_confidence_threshold: float = REOCR_CONFIDENCE_THRESHOLD
    reocr_accept_margin: float = REOCR_ACCEPT_MARGIN
    reocr_max_lines_per_page: int = REOCR_MAX_LINES_PER_PAGE
    reading_order_vertical_overlap: float = READING_ORDER_VERTICAL_OVERLAP


@dataclass(frozen=True)
class TableConfig:
    """Table-structure detection knobs (reference ``detect/table_tatr.py``)."""

    min_cols: int = TABLE_MIN_COLS
    min_rows: int = TABLE_MIN_ROWS
    x_tolerance: float = TABLE_X_TOLERANCE
    max_page_coverage: float = TABLE_MAX_PAGE_COVERAGE
    max_cells: int = TABLE_MAX_CELLS
    max_cells_coverage: float = TABLE_MAX_CELLS_COVERAGE


@dataclass(frozen=True)
class DedupConfig:
    """Exact dedup over the content hash (reference content-addressed
    cache semantics, ``azure/response_cache.py:66-91``): each extraction
    worker memoizes results by content hash, in the one streaming pass
    (``stages/dedup.py``)."""

    #: Per-worker memo cap (reference cache cap is 500 entries,
    #: ``azure/response_cache.py:54``; ours is larger since entries are
    #: extracted text, not full API responses).
    actor_cache_entries: int = 65536


@dataclass(frozen=True)
class FuseConfig:
    """Field fusion knobs (reference ``kie/fuse.py``)."""

    strategy: str = "weighted_vote"  # weighted_vote|consensus|highest_confidence|validator_priority
    min_single_source_confidence: float = FUSE_MIN_SINGLE_SOURCE_CONFIDENCE
    source_weights: tuple[tuple[str, float], ...] = (
        ("regex", 1.0),
        ("layout", 0.9),
        ("fallback", 0.5),
    )


@dataclass(frozen=True)
class ExtractConfig:
    """Top-level engine configuration."""

    html: HtmlConfig = field(default_factory=HtmlConfig)
    doc: DocConfig = field(default_factory=DocConfig)
    tables: TableConfig = field(default_factory=TableConfig)
    dedup: DedupConfig = field(default_factory=DedupConfig)
    fuse: FuseConfig = field(default_factory=FuseConfig)


DEFAULT_CONFIG = ExtractConfig()


# ---------------------------------------------------------------------------
# YAML / dict config-tree loading (reference ``config.py:290-316``:
# ``load_config`` reads a YAML file section-per-dataclass; absent keys
# keep their defaults, unknown keys fail loudly).
# ---------------------------------------------------------------------------

def config_from_dict(tree: dict) -> ExtractConfig:
    """Nested plain dict (one key per ExtractConfig section) → frozen
    dataclass tree. Type coercions mirror the dataclass fields: list
    values become tuples (and ``source_weights`` item pairs become
    tuples), everything else passes through dataclass construction.
    Unknown sections or knobs raise ``ValueError`` naming the offender —
    a silently-ignored typo in a tuning file is a production incident.
    """
    import dataclasses

    if not isinstance(tree, dict):
        raise ValueError(f"config root must be a mapping, got {type(tree).__name__}")
    sections = {f.name: f for f in dataclasses.fields(ExtractConfig)}
    unknown = set(tree) - set(sections)
    if unknown:
        raise ValueError(
            f"unknown config section(s) {sorted(unknown)}; "
            f"expected a subset of {sorted(sections)}")
    built = {}
    for name, fld in sections.items():
        knobs = tree.get(name)
        cls = fld.default_factory  # every section field is a dataclass factory
        if knobs is None:
            built[name] = cls()
            continue
        if not isinstance(knobs, dict):
            raise ValueError(f"config section {name!r} must be a mapping")
        valid = {f.name: f for f in dataclasses.fields(cls)}
        bad = set(knobs) - set(valid)
        if bad:
            raise ValueError(
                f"unknown knob(s) {sorted(bad)} in section {name!r}; "
                f"expected a subset of {sorted(valid)}")
        coerced = {}
        for k, v in knobs.items():
            if isinstance(v, list):
                v = tuple(tuple(x) if isinstance(x, list) else x for x in v)
            coerced[k] = v
        built[name] = cls(**coerced)
    return ExtractConfig(**built)


def load_config(path: str) -> ExtractConfig:
    """YAML config file → ``ExtractConfig`` (the reference's file-loading
    surface, ``config.py:290-316``). An empty file yields the defaults."""
    import yaml

    with open(path) as f:
        tree = yaml.safe_load(f)
    return config_from_dict(tree or {})
