"""Content sniffing unit tests (magic bytes replace extension probing,
reference ``pipeline/orchestrator.py:573-582``)."""

import hashlib

from horizon_ocr_python_ray.functions.sniff import (
    ROUTE_BINARY,
    ROUTE_DOC,
    ROUTE_HTML,
    ROUTE_IMAGE,
    ROUTE_TEXT,
    content_hash,
    sniff_route,
)


def test_routes():
    assert sniff_route(None) == ROUTE_TEXT
    assert sniff_route(b"") == ROUTE_TEXT
    assert sniff_route(b"%PDF-1.4\nxxx") == ROUTE_DOC
    assert sniff_route(b"\x89PNG\r\n\x1a\nrest") == ROUTE_IMAGE
    assert sniff_route(b"\xff\xd8\xff\xe0JFIF") == ROUTE_IMAGE
    assert sniff_route(b"GIF89a....") == ROUTE_IMAGE
    assert sniff_route(b"RIFF\x00\x00\x00\x00WEBPVP8") == ROUTE_IMAGE
    assert sniff_route(b"<!DOCTYPE html><html>") == ROUTE_HTML
    assert sniff_route(b"  \n<html lang='en'>") == ROUTE_HTML
    assert sniff_route(b"<div>hello</div>") == ROUTE_HTML
    assert sniff_route(b"\xef\xbb\xbf<html>") == ROUTE_HTML  # BOM
    assert sniff_route(b"\x00\x01\x02garbage") == ROUTE_BINARY


def test_sniff_and_extract_skip_one_leading_prefix():
    """Whitespace and whole BOMs, in any order and number, lead markup;
    html extraction skips exactly what sniffing skips, so a payload
    routed html never yields a BOM as text, and a stray BOM byte is
    content for both."""
    from horizon_ocr_python_ray.config import HtmlConfig
    from horizon_ocr_python_ray.functions.htmltext import extract_html

    cfg = HtmlConfig()
    clean = b"<html>This paragraph is long enough to be kept by the default block filter."
    want = extract_html(clean, cfg)[0]
    assert want.startswith("This paragraph")
    bom = b"\xef\xbb\xbf"
    cases = {
        b" " + bom + clean: ROUTE_HTML,
        bom + b" " + bom + clean: ROUTE_HTML,
        b"\n" + bom + bom + b"\t\r\f" + clean: ROUTE_HTML,
        b"\xef" + clean: ROUTE_BINARY,
        b" \xef\xbb" + clean: ROUTE_BINARY,
        bom + b"\xbf" + clean: ROUTE_BINARY,
        b"\n" * 300 + clean: ROUTE_HTML,  # markup past the first 256 bytes
    }
    for payload, route in cases.items():
        assert sniff_route(payload) == route, payload
        assert (extract_html(payload, cfg)[0] == want) == (route == ROUTE_HTML), payload


def test_content_hash_spaces_disjoint():
    # payload-hash and text-hash key spaces cannot collide
    payload = b"abc"
    assert content_hash(payload, None) != content_hash(None, "abc")
    assert content_hash(b"x", "ignored-when-payload-present") == content_hash(b"x", None)
    assert content_hash(b"x", None) == hashlib.sha256(b"B:x").hexdigest()
    assert content_hash(None, "t") == hashlib.sha256(b"T:t").hexdigest()


def test_probe_page_count_header_only():
    """S4 metadata probe: page count from raw bytes, no decode (ref
    io/pdf.py:144-173). Corrupt SYNDOC bodies and non-doc payloads
    probe to 0; images to 1; and the probe agrees with the full
    decode's page count on well-formed payloads."""
    from horizon_ocr_python_ray.functions.docformat import (
        DOC_MAGIC,
        decode_doc_payload,
        encode_doc_payload,
        encode_image_payload,
        make_line,
        probe_page_count,
    )

    pages = [{"page": i, "w": 100.0, "h": 50.0,
              "lines": [make_line(f"line {i}", (1, 2, 3, 4), 0.9)]}
             for i in range(7)]
    payload = encode_doc_payload(pages)
    assert probe_page_count(payload) == 7 == len(decode_doc_payload(payload))
    assert probe_page_count(encode_doc_payload([])) == 0
    img = encode_image_payload({"w": 10.0, "h": 10.0, "lines": []})
    assert probe_page_count(img) == 1
    assert probe_page_count(DOC_MAGIC + b'{"pages": corrupt') == 0
    assert probe_page_count(b"<html></html>") == 0
    assert probe_page_count(None) == 0
