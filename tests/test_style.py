"""Style extraction + scanned-vs-digital routing
(reference extract/pdf_style_extractor.py)."""

from __future__ import annotations

from horizon_ocr_python_ray.config import DEFAULT_CONFIG
from horizon_ocr_python_ray.functions.docformat import encode_doc_payload, make_line
from horizon_ocr_python_ray.functions.extract_core import extract_payload
from horizon_ocr_python_ray.functions.style import (
    estimate_style,
    is_scanned_doc,
    native_text_chars,
)


def test_estimate_style_size_and_bold():
    st = estimate_style("hello world", [0, 0, 100, 28])
    assert st["font_size"] == 21.0
    assert st["bold"] is False
    assert st["source"] == "estimated"
    # clamps
    assert estimate_style("x", [0, 0, 10, 4])["font_size"] == 6.0
    assert estimate_style("x", [0, 0, 10, 200])["font_size"] == 72.0
    # ALL-CAPS and heading roles are bold
    assert estimate_style("TOTAL DUE", [0, 0, 100, 28])["bold"] is True
    assert estimate_style("Section", [0, 0, 100, 28], role="title")["bold"] is True
    # confidence ladder caps at 0.8
    assert estimate_style("CAPS", [0, 0, 9, 9], role="title")["confidence"] == 0.75
    assert estimate_style("lower", [0, 0, 9, 9])["confidence"] == 0.5


def test_scanned_probe_threshold():
    short = [{"page": 0, "native": [{"t": "x" * 100}], "lines": []}]
    assert is_scanned_doc(short)  # exactly 100 chars → still scanned
    longer = [{"page": 0, "native": [{"t": "x" * 101}], "lines": []}]
    assert not is_scanned_doc(longer)
    assert native_text_chars(longer) == 101
    assert is_scanned_doc([{"page": 0, "lines": []}])


def _digital_payload():
    texts = ["Alpha beta gamma delta line one here", "SECOND LINE IN CAPS RIGHT NOW",
             "and a third line of body text today"]
    lines, native = [], []
    for k, t in enumerate(texts):
        bbox = (50.0, 300.0 + 40.0 * k, 50.0 + 8 * len(t), 328.0 + 40.0 * k)
        lines.append(make_line(t, bbox, 0.95))
        native.append({"t": t, "bbox": list(bbox), "font": "Arial",
                       "size": 21.0, "bold": False, "italic": False})
    return [{"page": 0, "w": 1000.0, "h": 1400.0, "lines": lines, "native": native}]


def test_native_path_byte_identical_to_recognition():
    pages = _digital_payload()
    digital = encode_doc_payload(pages)
    # strip the native layer → forced scanned path on identical content
    scanned_pages = [{k: v for k, v in p.items() if k != "native"} for p in pages]
    scanned = encode_doc_payload(scanned_pages)
    t1, s1, e1 = extract_payload("doc", digital, None, DEFAULT_CONFIG)
    t2, s2, e2 = extract_payload("doc", scanned, None, DEFAULT_CONFIG)
    assert e1 is None and e2 is None
    assert t1 == t2
    assert s1 == s2


def test_styles_pipeline_sources(corpus_dir):
    from horizon_ocr_python_ray import read_pages
    from horizon_ocr_python_ray.stages.style_stage import build_styles_pipeline

    df = build_styles_pipeline(read_pages(corpus_dir)).to_pandas()
    assert len(df) > 0
    sources = set(df["style_source"])
    assert sources == {"native", "estimated"}
    nat = df[df.style_source == "native"]
    est = df[df.style_source == "estimated"]
    assert (nat["style_confidence"] == 1.0).all()
    assert (est["style_confidence"] <= 0.8).all()
    # 28px-line estimate: 21pt
    assert (est["font_size"] == 21.0).all()


def test_worst_styles_topk_matches_full_sort(corpus_dir):
    from horizon_ocr_python_ray import read_pages
    from horizon_ocr_python_ray.stages.style_stage import (
        build_styles_pipeline,
        worst_styles_topk,
    )

    order_cols = ["style_confidence", "url", "page", "line_idx"]
    got = worst_styles_topk(build_styles_pipeline(read_pages(corpus_dir)), k=20)
    assert len(got) == 20
    assert list(got["rank"]) == list(range(1, 21))
    # per-batch min-k + driver merge must equal a brute full sort
    full = (build_styles_pipeline(read_pages(corpus_dir)).to_pandas()
            .sort_values(order_cols).head(20).reset_index(drop=True))
    for c in order_cols + ["kind"]:
        assert list(got[c]) == list(full[c]), c


def test_image_with_native_layer_styles_follow_extraction():
    """Images are always recognized — a native text layer on a SYNIMG
    payload must not switch the styles head to native rows while extract
    emits recognized lines for the same payload."""
    import pyarrow as pa

    from horizon_ocr_python_ray.functions.docformat import encode_image_payload
    from horizon_ocr_python_ray.stages.style_stage import styles_batch

    page = _digital_payload()[0]
    # Native layer beyond the 100-char digital threshold, one span fewer
    # than the recognizable lines, so a native-styled answer miscounts.
    page["native"] = [{**page["native"][0], "t": "n" * 120}]
    payload = encode_image_payload({k: v for k, v in page.items() if k != "page"})
    _text, spans, err = extract_payload("image", payload, None, DEFAULT_CONFIG)
    assert err is None and len(spans) == 3
    batch = pa.table({"url": ["u"], "route": ["image"], "html": [payload]})
    styles = styles_batch(batch, DEFAULT_CONFIG)
    assert styles.num_rows == len(spans)
    assert set(styles.column("style_source").to_pylist()) == {"estimated"}
