"""Validator kernels (reference semantics ``kie/validators.py``)."""

from datetime import date as _date, datetime as _datetime

from hypothesis import example, given, settings, strategies as st

from horizon_ocr_python_ray.functions.validators import (
    FieldTyper,
    detect_currency,
    normalize_date,
    parse_amount,
)


def test_parse_amount_us_eu_disambiguation():
    assert parse_amount("$1,234.56") == 1234.56
    assert parse_amount("1.234,56 €") == 1234.56
    assert parse_amount("1,234,567.89") == 1234567.89
    assert parse_amount("1.234.567,89") == 1234567.89
    assert parse_amount("1234,56") == 1234.56       # decimal comma
    assert parse_amount("1,234") == 1234.0          # thousands comma
    assert parse_amount("1.234") == 1234.0          # EU thousands dot
    assert parse_amount("12.34") == 12.34
    assert parse_amount("-42.00") == -42.0
    assert parse_amount("") is None
    assert parse_amount("n/a") is None


def test_normalize_date_cascade():
    assert normalize_date("2024-03-15") == "2024-03-15"
    assert normalize_date("15/03/2024") == "2024-03-15"
    assert normalize_date("03-15-2024") == "2024-03-15"
    assert normalize_date("15.03.2024") == "2024-03-15"
    assert normalize_date("Mar 15, 2024") == "2024-03-15"
    assert normalize_date("15 March 2024") == "2024-03-15"
    assert normalize_date("20240315") == "2024-03-15"
    assert normalize_date("15-Mar-2024") == "2024-03-15"
    assert normalize_date("15/03/24") == "2024-03-15"  # 2-digit-year retry
    assert normalize_date("not a date") is None


def test_currency_detection():
    assert detect_currency("$5") == "USD"
    assert detect_currency("5 €") == "EUR"
    assert detect_currency("5 GBP") == "GBP"
    assert detect_currency("5") is None


def test_infer_and_normalize():
    t = FieldTyper()
    assert t.infer_data_type("total", "$1,234.56") == "currency"
    assert t.normalize_value("currency", "$1,234.56") == "1234.56"
    assert t.infer_data_type("invoice date", "2024-01-02") == "date"
    assert t.infer_data_type("notes", "hello world") == "string"
    assert t.infer_data_type("count", "42") == "number"


def test_validate_field():
    t = FieldTyper()
    res = t.validate_field("total", "$10.00", "currency")
    assert res == [{"name": "amount_parse", "passed": True, "message": ""}]
    res = t.validate_field("total", "abc", "currency")
    assert not res[0]["passed"]


def test_consistency_tolerance():
    check = FieldTyper().check_document_consistency
    ok = check({"total": "110.00", "subtotal": "100.00", "tax": "10.00"})
    assert ok[0]["passed"]
    bad = check({"total": "115.00", "subtotal": "100.00", "tax": "10.00"})
    assert not bad[0]["passed"]
    dates = check({"date": "2024-01-10", "due_date": "2024-01-01"})
    assert not dates[0]["passed"]


def test_normalize_date_all_formats():
    # every format of the reference's 17-entry cascade parses to ISO
    # (kie/validators.py:262-286)
    from horizon_ocr_python_ray.functions.validators import normalize_date

    cases = [
        "2024-03-15", "15/03/2024", "03/15/2024", "15-03-2024",
        "15.03.2024", "2024/03/15", "2024.03.15", "15 Mar 2024",
        "15 March 2024", "Mar 15, 2024", "March 15, 2024", "Mar 15 2024",
        "March 15 2024", "20240315", "15-Mar-2024", "15 Mar, 2024",
    ]
    for s in cases:
        assert normalize_date(s) == "2024-03-15", s
    # ambiguous day/month: first matching format wins (d/m before m/d)
    assert normalize_date("03-15-2024") == "2024-03-15"  # m-d fallback
    # 2-digit-year retry
    assert normalize_date("15/03/24") == "2024-03-15"
    assert normalize_date("not a date") is None


def test_parse_amount_matrix():
    from horizon_ocr_python_ray.functions.validators import parse_amount

    cases = {
        "$1,234.56": 1234.56,
        "1.234,56 €": 1234.56,
        "1,234,567": 1234567.0,
        "1.234.567": 1234567.0,
        "1234,56": 1234.56,
        "1.234": 1234.0,          # EU thousands
        "12.34": 12.34,           # decimal dot
        "-42.00": -42.0,
        "USD 99": 99.0,
        "0": 0.0,
    }
    for s, want in cases.items():
        got = parse_amount(s)
        assert got == want, (s, got, want)
    assert parse_amount("") is None
    assert parse_amount("--") is None
    assert parse_amount("no digits") is None


# -- normalize_date against the strptime cascade it replaced -----------------
_REF_DATE_FORMATS = (
    "%Y-%m-%d", "%d/%m/%Y", "%m/%d/%Y", "%d-%m-%Y", "%m-%d-%Y",
    "%d.%m.%Y", "%Y/%m/%d", "%Y.%m.%d", "%d %b %Y", "%d %B %Y",
    "%b %d, %Y", "%B %d, %Y", "%b %d %Y", "%B %d %Y",
    "%Y%m%d", "%d-%b-%Y", "%d %b, %Y",
)
_REF_DATE_FORMATS_2Y = tuple(f.replace("%Y", "%y") for f in _REF_DATE_FORMATS)


def _normalize_date_reference(value: str) -> str | None:
    """The plain strptime cascade, kept as the oracle."""
    if not value:
        return None
    s = value.strip()
    for fmt in _REF_DATE_FORMATS:
        try:
            return _datetime.strptime(s, fmt).strftime("%Y-%m-%d")
        except ValueError:
            continue
    for fmt in _REF_DATE_FORMATS_2Y:
        try:
            return _datetime.strptime(s, fmt).strftime("%Y-%m-%d")
        except ValueError:
            continue
    return None


@st.composite
def _rendered_dates(draw) -> str:
    """A date rendered in one cascade format, then perturbed the ways OCR
    text is: mixed-case month names, space-padded days, whitespace runs,
    outer whitespace, and sometimes an invalid day or a stray suffix."""
    d = draw(st.dates(min_value=_date(1, 1, 1), max_value=_date(9999, 12, 31)))
    fmt = draw(st.sampled_from(_REF_DATE_FORMATS + _REF_DATE_FORMATS_2Y))
    if draw(st.booleans()):
        fmt = fmt.replace("%d", f"{d.day:2d}")  # "%d" also takes " 1"
    s = d.strftime(fmt)
    if draw(st.booleans()):
        s = "".join(c.upper() if draw(st.booleans()) else c.lower() for c in s)
    if draw(st.booleans()):
        runs = st.sampled_from([" ", "  ", "\t", " \n ", "　"])
        s = "".join(draw(runs) if c == " " else c for c in s)
    if draw(st.booleans()):
        s = s.replace(f"{d.day:02d}", draw(st.sampled_from(["30", "31", "00", "32"])), 1)
    suffix = draw(st.sampled_from(["", "", "", "0", "x", ".", " 12:00"]))
    pad = draw(st.sampled_from(["", " ", "\t", "\n"]))
    return pad + s + suffix + pad


_NON_DATES = st.sampled_from(["8", "INV-000000", "V0786", "", " ", "2024",
                              "12/31", "$1,234.56", "Mar", "1/1/1"])


@settings(max_examples=1500, deadline=None)
@given(st.one_of(_rendered_dates(), _NON_DATES, st.text(max_size=24),
                 st.from_regex(r"[0-9 /.,\-A-Za-z]{1,14}", fullmatch=True)))
@example(" 1/ 1/2024")
@example("29/02/23")
@example("SEPTEMBER  9,\t2024")
def test_normalize_date_matches_strptime_cascade(s):
    assert normalize_date(s) == _normalize_date_reference(s)
